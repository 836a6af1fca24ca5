// Package regproto defines the router registration protocol: the heartbeat a
// harvestd backend sends a harvestrouter. A node opens one connection with a
// POST /v1/register that asks to upgrade to UpgradeToken; the router answers
// 101, and from then on the connection carries one wire.OpRegister frame per
// beat, each answered by a wire.OpRegisterResp frame or an OpError refusing it
// (conn.go). A POST that does not ask to upgrade is refused. The package lives
// apart so the serving layer's registration client
// (internal/service.Announcer) and the router's server side (internal/router)
// share one definition without the serving tier importing the proxy
// implementation.
package regproto

import (
	"net"

	"harvest/internal/wire"
)

// AdvertiseAddr is the host:port a node announces for a listener bound at
// bound: the port is the bound one, the host is host when given (the node's
// -advertise name) and the bound host otherwise, with a wildcard ("", "::",
// "0.0.0.0") mapped to loopback — right on one machine; multi-host
// deployments pass the host. An address that is not host:port is returned as
// it is.
func AdvertiseAddr(bound net.Addr, host string) string {
	boundHost, port, err := net.SplitHostPort(bound.String())
	if err != nil {
		return bound.String()
	}
	if host == "" {
		host = boundHost
	}
	switch host {
	case "", "::", "0.0.0.0":
		host = "127.0.0.1"
	}
	return net.JoinHostPort(host, port)
}

// RegisterRequest is the heartbeat a backend sends the router. The same beat
// re-registers: ID is the stable identity, URL and the datacenter set are
// updated on every beat. On a frame its strings are one-byte-length strings,
// so none may exceed wire.MaxStr8 bytes.
type RegisterRequest struct {
	ID  string
	URL string
	// BinaryAddr is the backend's binary frame listener (host:port), empty
	// for a JSON-only backend. The router's binary front relays frames to
	// it; a backend without one is served on the router's JSON front only.
	BinaryAddr string
	// Role announces the node's replication role: "primary" (or empty, for
	// compatibility with pre-replication backends) or "follower". The router
	// pins writes to primaries and spreads generation-fresh reads across
	// followers.
	Role string
	// PrimaryID names the primary a follower replicates from, so the router
	// only promotes followers of the backend that actually went missing.
	// Empty for primaries.
	PrimaryID string
	// ReplicateAddr is the node's replication listener (host:port): a primary
	// streams on it, a follower refuses each hello on it until promoted. The
	// router hands a primary's ReplicateAddr back to its followers (see
	// RegisterResponse.PrimaryReplicateAddr) so orphaned followers re-dial
	// whichever follower was promoted, without operator intervention.
	ReplicateAddr string
	// Draining marks a planned shutdown: the backend is still up but asks the
	// router to stop routing to it immediately instead of waiting out the
	// staleness window. Sent on the final heartbeat before SIGTERM teardown.
	Draining bool
	// Datacenters are the datacenters the backend serves, each with the
	// snapshot generation it holds (operator visibility: a shard whose
	// generation stops advancing is stale even if the process is alive).
	Datacenters []wire.ReplDCGen
}

// RegisterResponse acknowledges a heartbeat.
type RegisterResponse struct {
	// PrimaryReplicateAddr, set on a follower's acknowledgement, is the
	// replication listener of the primary the router currently believes owns
	// this follower's datacenters. A follower whose primary died compares it
	// against the address it is dialing and re-points its replication stream
	// at the promoted node.
	PrimaryReplicateAddr string
	// Promote tells a follower the router elected it to replace its primary,
	// which stopped beating: the node promotes itself and beats again at once
	// as primary, which takes the routes.
	Promote bool
}

// AppendRegisterRequest appends a complete OpRegister frame carrying m.
func AppendRegisterRequest(dst []byte, id uint64, m *RegisterRequest) []byte {
	mark := len(dst)
	dst = wire.BeginFrame(dst, wire.OpRegister, id)
	dst = wire.AppendStr8(dst, m.ID)
	dst = wire.AppendStr8(dst, m.URL)
	dst = wire.AppendStr8(dst, m.BinaryAddr)
	dst = wire.AppendStr8(dst, m.Role)
	dst = wire.AppendStr8(dst, m.PrimaryID)
	dst = wire.AppendStr8(dst, m.ReplicateAddr)
	dst = wire.AppendBool(dst, m.Draining)
	dst = wire.AppendDCGens(dst, m.Datacenters)
	return wire.EndFrame(dst, mark)
}

// Decode parses an OpRegister payload into m, reusing its storage: a string
// that spells the one m already holds is kept, not copied, and the datacenter
// list is refilled in place (wire.Reader.DCGens). A beat that repeats the
// previous one therefore decodes without allocating.
func (m *RegisterRequest) Decode(payload []byte) error {
	r := wire.NewReader(payload)
	m.ID = r.Str8Keep(m.ID)
	m.URL = r.Str8Keep(m.URL)
	m.BinaryAddr = r.Str8Keep(m.BinaryAddr)
	m.Role = r.Str8Keep(m.Role)
	m.PrimaryID = r.Str8Keep(m.PrimaryID)
	m.ReplicateAddr = r.Str8Keep(m.ReplicateAddr)
	m.Draining = r.Bool()
	m.Datacenters = r.DCGens(m.Datacenters)
	return r.Done()
}

// AppendRegisterResponse appends a complete OpRegisterResp frame carrying m.
func AppendRegisterResponse(dst []byte, id uint64, m *RegisterResponse) []byte {
	mark := len(dst)
	dst = wire.BeginFrame(dst, wire.OpRegisterResp, id)
	dst = wire.AppendStr8(dst, m.PrimaryReplicateAddr)
	dst = wire.AppendBool(dst, m.Promote)
	return wire.EndFrame(dst, mark)
}

// Decode parses an OpRegisterResp payload into m, keeping the string m
// already holds as RegisterRequest.Decode does.
func (m *RegisterResponse) Decode(payload []byte) error {
	r := wire.NewReader(payload)
	m.PrimaryReplicateAddr = r.Str8Keep(m.PrimaryReplicateAddr)
	m.Promote = r.Bool()
	return r.Done()
}
