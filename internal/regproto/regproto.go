// Package regproto defines the wire format of the router registration
// protocol — the heartbeat a harvestd backend POSTs to a harvestrouter's
// /v1/register. It lives in its own package so the serving layer's
// registration client (internal/service.Announcer) and the router's server
// side (internal/router) share one definition without the serving tier
// importing the proxy implementation.
package regproto

// RegisterDatacenter is one datacenter a backend announces, with the
// snapshot generation it currently serves (operator visibility: a shard
// whose generation stops advancing is stale even if the process is alive).
type RegisterDatacenter struct {
	Name       string `json:"name"`
	Generation uint64 `json:"generation"`
}

// RegisterRequest is the heartbeat body a backend POSTs to /v1/register.
// The same body re-registers: ID is the stable identity, URL and the
// datacenter set are updated on every beat.
type RegisterRequest struct {
	ID  string `json:"id"`
	URL string `json:"url"`
	// BinaryAddr is the backend's binary frame listener (host:port), empty
	// for a JSON-only backend. The router's binary front relays frames to
	// it; a backend without one is served on the router's JSON front only.
	BinaryAddr string `json:"binary_addr,omitempty"`
	// Role announces the node's replication role: "primary" (or empty, for
	// compatibility with pre-replication backends) or "follower". The router
	// pins writes to primaries and spreads generation-fresh reads across
	// followers.
	Role string `json:"role,omitempty"`
	// PrimaryID names the primary a follower replicates from, so the router
	// only promotes followers of the backend that actually went missing.
	// Empty for primaries.
	PrimaryID string `json:"primary_id,omitempty"`
	// ReplicateAddr is the node's replication listener (host:port) — live on
	// a primary, armed-but-idle on a follower carrying -replicate-addr. The
	// router hands a primary's ReplicateAddr back to its followers (see
	// RegisterResponse.PrimaryReplicateAddr) so orphaned followers re-dial
	// whichever follower was promoted, without operator intervention.
	ReplicateAddr string `json:"replicate_addr,omitempty"`
	// Draining marks a planned shutdown: the backend is still up but asks the
	// router to stop routing to it immediately instead of waiting out the
	// staleness window. Sent on the final heartbeat before SIGTERM teardown.
	Draining    bool                 `json:"draining,omitempty"`
	Datacenters []RegisterDatacenter `json:"datacenters"`
}

// RegisterResponse acknowledges a heartbeat and tells the backend how long
// it may go silent before its datacenters start 503ing.
type RegisterResponse struct {
	Status            string  `json:"status"`
	Backends          int     `json:"backends"`
	StaleAfterSeconds float64 `json:"stale_after_seconds"`
	// PrimaryReplicateAddr, set on a follower's acknowledgement, is the
	// replication listener of the primary the router currently believes owns
	// this follower's datacenters. A follower whose primary died compares it
	// against the address it is dialing and re-points its replication stream
	// at the promoted node.
	PrimaryReplicateAddr string `json:"primary_replicate_addr,omitempty"`
}
