package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"harvest/internal/blockledger"
	"harvest/internal/core"
	"harvest/internal/ledger"
	"harvest/internal/telemetry"
	"harvest/internal/tenant"
	"harvest/internal/wire"
)

// The replication ship and apply paths are unexported; these shims let the
// external test package drive the real ones frame by frame, without sockets.

// RaceEnabled reports whether this binary was built with -race.
const RaceEnabled = raceEnabled

// ReplApplier is one follower connection's decode state.
type ReplApplier = replApplier

// Beat is the message the connection's beats decode into.
func (ap *ReplApplier) Beat() *wire.ReplBeat { return &ap.beat }

// ReplSender is one follower connection's encode state.
type ReplSender = replSender

// BuildReplFrame is buildReplFrame for a datacenter's shard.
func (s *Service) BuildReplFrame(snd *ReplSender, dc string, prev *Snapshot) ([]byte, *Snapshot) {
	return s.buildReplFrame(snd, s.shards[dc], prev)
}

// ApplyReplFrame is applyReplFrame.
func (s *Service) ApplyReplFrame(ap *ReplApplier, op wire.Op, payload []byte) error {
	return s.applyReplFrame(ap, op, payload)
}

// Ledgers returns a datacenter's allocation and block ledgers.
func (s *Service) Ledgers(dc string) (*ledger.Ledger, *blockledger.Ledger) {
	sh := s.shards[dc]
	return sh.led, sh.blocks
}

// Boot returns the population and the telemetry rings a datacenter's shard
// booted with.
func (s *Service) Boot(dc string) (*tenant.Population, *telemetry.Store) {
	sh := s.shards[dc]
	return sh.pop, sh.rings
}

// BootPhases returns what New spent on a datacenter generating its population
// into the rings and building or restoring its snapshot.
func (s *Service) BootPhases(dc string) (population, snapshot time.Duration) {
	b := s.shards[dc].boot
	return b.population, b.snapshot
}

// SetTestHookAfterRekey installs the hook refreshShard runs between re-keying
// the ledgers and publishing the snapshot, with the gate held. Set it only
// while no refresh can be running.
func (s *Service) SetTestHookAfterRekey(hook func()) { s.testHookAfterRekey = hook }

// Pattern is the route pattern the API's mux serves r with, empty when none.
func (a *API) Pattern(r *http.Request) string {
	_, pattern := a.mux.Handler(r)
	return pattern
}

// SnapshotFileJSON is the bytes persistShard writes to <dc>.snapshot.json for
// the datacenter's current snapshot.
func (s *Service) SnapshotFileJSON(dc string) ([]byte, error) {
	sh := s.shards[dc]
	snap := sh.snap.Load()
	var file bytes.Buffer
	var st persistStage
	err := st.writeSnapshotFile(&file, s.snapshotFile(sh, snap), snap)
	return file.Bytes(), err
}

// Announce sends one registration beat now, as the announce job does.
func (a *Announcer) Announce() error { return a.announce() }

// Dispatcher is one connection's worth of the binary server's dispatch: the
// function appends the response to a request frame to out, with a scratch of
// its own as handleConn keeps one per connection.
func (b *BinaryServer) Dispatcher() func(out []byte, h wire.Header, payload []byte) []byte {
	sc := new(scratch)
	return func(out []byte, h wire.Header, payload []byte) []byte { return b.dispatch(sc, out, h, payload) }
}

// ReseedDraws starts the next request's selection and placement draws from a
// generator seeded with seed, so two services booted alike draw alike. Call it
// only while no request is in flight.
func (s *Service) ReseedDraws(seed int64) {
	s.rngs = sync.Pool{New: func() any { return rand.New(rand.NewSource(seed)) }}
}

// FreshRequestStates empties the pool of the JSON API's per-request states, so
// the next request is served from a new one.
func FreshRequestStates() { statusWriters = sync.Pool{New: statusWriters.New} }

// RebuiltReply decodes a 200 reply of a JSON data-plane endpoint and encodes
// it again the way its handler once built every reply: a fresh value whose
// lists are new slices of their own length, passed to encoding/json by value.
func RebuiltReply(endpoint string, reply []byte) ([]byte, error) {
	var v any
	var err error
	switch endpoint {
	case "select":
		v, err = rebuilt(reply, func(r *selectResponse) { r.Classes, r.Headrooms = remade(r.Classes), remade(r.Headrooms) })
	case "release":
		v, err = rebuilt(reply, func(r *releaseResponse) { r.Classes, r.Cores = remade(r.Classes), remade(r.Cores) })
	case "renew":
		v, err = rebuilt(reply, func(*renewResponse) {})
	case "place", "blocks":
		v, err = rebuilt(reply, func(r *placeResponse) { r.Replicas = remade(r.Replicas) })
	case "classes":
		v, err = rebuilt(reply, func(r *classesResponse) { r.Classes = remade(r.Classes) })
	case "server_class":
		v, err = rebuilt(reply, func(*serverClassResponse) {})
	case "telemetry":
		v, err = rebuilt(reply, func(*telemetryResponse) {})
	case "reimage":
		v, err = rebuilt(reply, func(*reimageResponse) {})
	default:
		return nil, fmt.Errorf("no reply type for endpoint %q", endpoint)
	}
	var b bytes.Buffer
	if err == nil {
		err = json.NewEncoder(&b).Encode(v)
	}
	return b.Bytes(), err
}

func rebuilt[T any](reply []byte, remake func(*T)) (T, error) {
	var v T
	err := json.Unmarshal(reply, &v)
	remake(&v)
	return v, err
}

func remade[E any](s []E) []E { return append(make([]E, 0, len(s)), s...) }

// LiveSelectIndex is the select index of the datacenter's live usage view,
// rebuilt first if the snapshot or ingest progress moved: what a select
// reads before it draws.
func (s *Service) LiveSelectIndex(dc string) *core.SelectIndex {
	return s.usageViewFor(s.shards[dc].snap.Load()).idx
}
