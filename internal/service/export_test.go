package service

import (
	"encoding/json"
	"net/http"

	"harvest/internal/blockledger"
	"harvest/internal/ledger"
	"harvest/internal/wire"
)

// The replication ship and apply paths are unexported; these shims let the
// external test package drive the real ones frame by frame, without sockets.

// ReplApplier is one follower connection's decode state.
type ReplApplier = replApplier

// Beat is the message the connection's beats decode into.
func (ap *ReplApplier) Beat() *wire.ReplBeat { return &ap.beat }

// ReplSender is one follower connection's encode state.
type ReplSender = replSender

// BuildReplFrame is buildReplFrame for a datacenter's shard.
func (s *Service) BuildReplFrame(snd *ReplSender, dc string, prev *Snapshot) ([]byte, *Snapshot, bool) {
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

// SetTestHookAfterRekey installs refreshShard's in-the-gap hook. Set it only
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
	return json.Marshal(s.snapshotFile(sh, sh.snap.Load()))
}

// Dispatcher is one connection's worth of the binary server's dispatch: the
// function appends the response to a request frame to out, with a scratch of
// its own as handleConn keeps one per connection.
func (b *BinaryServer) Dispatcher() func(out []byte, h wire.Header, payload []byte) []byte {
	sc := new(scratch)
	return func(out []byte, h wire.Header, payload []byte) []byte { return b.dispatch(sc, out, h, payload) }
}
