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

// RegisterDatacenter is one datacenter a backend announces, with the
// snapshot generation it currently serves (operator visibility: a shard
// whose generation stops advancing is stale even if the process is alive).
type RegisterDatacenter struct {
	Name       string
	Generation uint64
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
	Draining    bool
	Datacenters []RegisterDatacenter
}

// RegisterResponse acknowledges a heartbeat and tells the backend how long
// it may go silent before its datacenters start 503ing.
type RegisterResponse struct {
	Status            string
	Backends          int
	StaleAfterSeconds float64
	// PrimaryReplicateAddr, set on a follower's acknowledgement, is the
	// replication listener of the primary the router currently believes owns
	// this follower's datacenters. A follower whose primary died compares it
	// against the address it is dialing and re-points its replication stream
	// at the promoted node.
	PrimaryReplicateAddr string
}

// registerDCSize is the smallest encoded datacenter entry: an empty name's
// length byte and the generation.
const registerDCSize = 1 + 8

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
	draining := uint8(0)
	if m.Draining {
		draining = 1
	}
	dst = wire.AppendU8(dst, draining)
	dst = wire.AppendU16(dst, uint16(len(m.Datacenters)))
	for _, dc := range m.Datacenters {
		dst = wire.AppendStr8(dst, dc.Name)
		dst = wire.AppendU64(dst, dc.Generation)
	}
	return wire.EndFrame(dst, mark)
}

// Decode parses an OpRegister payload into m, reusing its storage: a string
// that spells the one m already holds is kept, not copied, and the datacenter
// slice is refilled in place. A beat that repeats the previous one therefore
// decodes without allocating.
func (m *RegisterRequest) Decode(payload []byte) error {
	r := wire.NewReader(payload)
	m.ID = keep(m.ID, r.Str8())
	m.URL = keep(m.URL, r.Str8())
	m.BinaryAddr = keep(m.BinaryAddr, r.Str8())
	m.Role = keep(m.Role, r.Str8())
	m.PrimaryID = keep(m.PrimaryID, r.Str8())
	m.ReplicateAddr = keep(m.ReplicateAddr, r.Str8())
	m.Draining = r.Bool()
	n := int(r.U16())
	if n > r.Remaining()/registerDCSize {
		// A count the payload cannot hold must not size an allocation.
		return wire.ErrShortPayload
	}
	if cap(m.Datacenters) < n {
		// Keep the names already held, so the next beat finds them to keep.
		grown := make([]RegisterDatacenter, n)
		copy(grown, m.Datacenters[:cap(m.Datacenters)])
		m.Datacenters = grown
	}
	m.Datacenters = m.Datacenters[:n]
	for i := range m.Datacenters {
		dc := &m.Datacenters[i]
		dc.Name = keep(dc.Name, r.Str8())
		dc.Generation = r.U64()
	}
	return r.Done()
}

// AppendRegisterResponse appends a complete OpRegisterResp frame carrying m.
func AppendRegisterResponse(dst []byte, id uint64, m *RegisterResponse) []byte {
	mark := len(dst)
	dst = wire.BeginFrame(dst, wire.OpRegisterResp, id)
	dst = wire.AppendStr8(dst, m.Status)
	dst = wire.AppendU32(dst, uint32(m.Backends))
	dst = wire.AppendF64(dst, m.StaleAfterSeconds)
	dst = wire.AppendStr8(dst, m.PrimaryReplicateAddr)
	return wire.EndFrame(dst, mark)
}

// Decode parses an OpRegisterResp payload into m, keeping the strings m
// already holds as RegisterRequest.Decode does.
func (m *RegisterResponse) Decode(payload []byte) error {
	r := wire.NewReader(payload)
	m.Status = keep(m.Status, r.Str8())
	m.Backends = int(r.U32())
	m.StaleAfterSeconds = r.F64()
	m.PrimaryReplicateAddr = keep(m.PrimaryReplicateAddr, r.Str8())
	return r.Done()
}

// keep returns prev when b spells it and a copy of b otherwise.
func keep(prev string, b []byte) string {
	if prev == string(b) {
		return prev
	}
	return string(b)
}
