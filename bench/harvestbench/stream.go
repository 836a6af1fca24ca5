package main

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"

	"harvest/internal/wire"
)

// opKind is one logical operation of the request stream. The stream is
// dialect-free: the binary and JSON clients encode the same request values,
// which is what lets sched_binary and sched_json run one logical stream.
type opKind uint8

const (
	opSelect    opKind = iota // reserving select (write)
	opDrySelect               // advisory select (read)
	opRelease
	opRenew
	opClasses
	opServer // server → class lookup
	opPlace  // advisory Alg. 2 placement (read)
	opPlaceBlock
	opReimage // control op of the storage wave; never drawn by a stream
	numOpKinds
)

var opNames = [numOpKinds]string{"select", "dryselect", "release", "renew", "classes", "server", "place", "place_block", "reimage"}

func (k opKind) String() string { return opNames[k] }

// mix is the relative weight of each op kind in a workload's traffic.
type mix [numOpKinds]int

// request is one generated operation. Pick is a raw random draw the client
// resolves against live state at send time — which held lease to release or
// renew, which server to look up — because lease ids are minted by the server
// and so cannot be part of the generated input.
type request struct {
	Kind    opKind
	Job     uint8 // wire.Job* code
	Cores   float64
	LastRun float64 // seconds; meaningful when Job == wire.JobFromLastRun
	Pick    uint32
	// HoldMillis is the lease TTL a select asks for. Streams leave it 0 (the
	// server default); only the standing-lease preload sets it.
	HoldMillis uint32
}

// stream generates one connection's requests from (seed, connection index,
// mix). The same triple always yields the same sequence.
type stream struct {
	rng   *rand.Rand
	table []opKind
}

func newStream(seed int64, conn int, m mix) *stream {
	s := &stream{rng: rand.New(rand.NewSource(seed*1_000_003 + int64(conn)*7919 + 1))}
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
	r := request{
		Kind:    s.table[s.rng.Intn(len(s.table))],
		Job:     uint8(s.rng.Intn(4)),
		Cores:   float64(1 + s.rng.Intn(8)),
		LastRun: float64(s.rng.Intn(7200)),
		Pick:    s.rng.Uint32(),
	}
	if r.Job != wire.JobFromLastRun {
		r.LastRun = 0
	}
	return r
}

// streamDigest hashes the first n requests of a stream: the fingerprint the
// tests pin (same seed ⇒ same inputs) and results.json records.
func streamDigest(seed int64, conn int, m mix, n int) uint64 {
	s := newStream(seed, conn, m)
	h := fnv.New64a()
	var buf [2 + 8 + 8 + 4]byte
	for i := 0; i < n; i++ {
		r := s.next()
		buf[0], buf[1] = byte(r.Kind), r.Job
		binary.LittleEndian.PutUint64(buf[2:], uint64(r.Cores))
		binary.LittleEndian.PutUint64(buf[10:], uint64(r.LastRun))
		binary.LittleEndian.PutUint32(buf[18:], r.Pick)
		h.Write(buf[:])
	}
	return h.Sum64()
}
