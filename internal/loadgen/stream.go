// Package loadgen is the load driver behind cmd/loadgen: the paper's own
// traffic — YARN-H heartbeat selects with their hold/renew/release cycle
// (Alg. 1), advisory placements, class lookups — generated as one seeded,
// dialect-free request stream per connection and paced closed or open loop;
// plus the two control-plane drivers that share its discovery and /metrics
// helpers, the telemetry emitter and the reimaging wave (Alg. 2). DESIGN.md
// "Load driver" describes the shape.
package loadgen

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
)

// opKind is one logical operation of the request stream. The stream is
// dialect-free: the JSON and binary connections encode the same request
// values.
type opKind uint8

const (
	opSelect    opKind = iota // reserving select (write)
	opDrySelect               // advisory select: reserves nothing, safe on a read replica
	opRelease
	opRenew
	opPlace // advisory Alg. 2 placement (read)
	opClasses
	opServer // server → class lookup
	numOpKinds
)

var opNames = [numOpKinds]string{"select", "dryselect", "release", "renew", "place", "classes", "server"}

func (k opKind) String() string { return opNames[k] }

// mix is the relative weight of each op kind in the traffic.
type mix [numOpKinds]int

// parseMix turns "select=40,place=40,..." into per-op weights. A repeated
// name overrides its earlier entry, so the total is validated over the final
// weights, not the entries.
func parseMix(s string) (mix, error) {
	var m mix
	for _, part := range strings.Split(s, ",") {
		if part == "" {
			continue
		}
		name, value, ok := strings.Cut(part, "=")
		if !ok {
			return m, fmt.Errorf("bad mix entry %q (want name=weight)", part)
		}
		w, err := strconv.Atoi(value)
		if err != nil || w < 0 {
			return m, fmt.Errorf("bad mix weight %q", part)
		}
		k := opKind(0)
		for k < numOpKinds && opNames[k] != name {
			k++
		}
		if k == numOpKinds {
			return m, fmt.Errorf("unknown mix operation %q (want one of %s)", name, strings.Join(opNames[:], ", "))
		}
		m[k] = w
	}
	total := 0
	for _, w := range m {
		total += w
	}
	if total == 0 {
		return m, fmt.Errorf("mix selects no operations")
	}
	return m, nil
}

// request is one generated operation. What the server mints (lease ids, the
// servers it placed on) cannot be part of the generated input, so the
// connection fills Arg in at send time from its live pools: the lease to
// release or renew by the pool's order, the server to look up by Pick.
type request struct {
	Kind  opKind
	DC    int   // index into the discovered datacenters
	Job   uint8 // wire.Job* code
	Cores float64
	Pick  uint32
	Arg   uint64 // resolved: the lease (release, renew) or the server (server)
}

// selectCores is the spread of demand sizes selects ask for.
var selectCores = [...]float64{2, 8, 32, 128}

// stream generates one connection's requests from (seed, connection index,
// mix). The same triple always yields the same sequence.
type stream struct {
	rng   *rand.Rand
	table []opKind
	dcs   int
}

func newStream(seed int64, conn int, m mix, dcs int) *stream {
	s := &stream{rng: rand.New(rand.NewSource(seed*1_000_003 + int64(conn)*7919 + 1)), dcs: dcs}
	for k, w := range m {
		for i := 0; i < w; i++ {
			s.table = append(s.table, opKind(k))
		}
	}
	return s
}

// next draws one request. Every field is drawn for every kind so the RNG
// consumption — and with it the rest of the stream — does not depend on the
// kind drawn.
func (s *stream) next() request {
	return request{
		Kind:  s.table[s.rng.Intn(len(s.table))],
		DC:    s.rng.Intn(s.dcs),
		Job:   uint8(s.rng.Intn(3)), // wire.JobShort, JobMedium, JobLong
		Cores: selectCores[s.rng.Intn(len(selectCores))],
		Pick:  s.rng.Uint32(),
	}
}
