package service_test

import (
	"bytes"
	"slices"
	"testing"

	"harvest/internal/ledger"
	"harvest/internal/service"
	"harvest/internal/striped"
	"harvest/internal/wire"
)

// TestBinaryRepliesAreTheCanonicalEncoding pins the server's reply bytes to
// internal/wire's encoders: every response the binary server sends decodes
// with its message's Decode and re-encodes, through wire.Append*Resp, to the
// bytes the server sent. A response layout therefore has one definition, and a
// server that spelled a field differently from the codec would fail here.
func TestBinaryRepliesAreTheCanonicalEncoding(t *testing.T) {
	const dc = "DC-9"
	svc := newTestService(t)
	defer svc.Close()
	bin := service.NewBinaryServer(svc)
	dispatch := bin.Dispatcher()

	// State the later requests name, filled in by the earlier replies.
	var (
		classes wire.ClassesResp
		held    wire.SelectResp
		block   wire.PlaceBlockResp
	)
	// spread is a demand no single class can host, so the select reply carries
	// several class entries.
	spread := 0.0
	for cores := 64.0; cores < 1e6 && spread == 0; cores *= 2 {
		frame := wire.AppendSelectReq(nil, 1, dc, wire.SelectReq{Job: wire.JobShort, Flags: wire.SelectFlagDryRun, MaxCores: cores})
		h, _ := wire.ParseHeader(frame)
		var m wire.SelectResp
		if err := m.Decode(dispatch(nil, h, frame[wire.HeaderSize:])[wire.HeaderSize:]); err != nil {
			t.Fatal(err)
		}
		if len(m.Classes) > 1 {
			spread = cores
		}
	}
	steps := []struct {
		name  string
		want  wire.Op
		frame func(id uint64) []byte
		// recode decodes the reply payload and encodes it again as a frame.
		recode func(id uint64, payload []byte) ([]byte, error)
	}{
		{"classes", wire.OpClassesResp,
			func(id uint64) []byte { return wire.AppendClassesReq(nil, id, dc) },
			func(id uint64, p []byte) ([]byte, error) {
				err := classes.Decode(p)
				return wire.AppendClassesResp(nil, id, &classes), err
			}},
		{"server class", wire.OpServerClassResp,
			func(id uint64) []byte {
				return wire.AppendServerClassReq(nil, id, dc, classes.Classes[0].ExampleServer)
			},
			func(id uint64, p []byte) ([]byte, error) {
				var m wire.ServerClassResp
				err := m.Decode(p)
				return wire.AppendServerClassResp(nil, id, &m), err
			}},
		{"dry spread select", wire.OpSelectResp,
			func(id uint64) []byte {
				return wire.AppendSelectReq(nil, id, dc, wire.SelectReq{Job: wire.JobShort, Flags: wire.SelectFlagDryRun, MaxCores: spread})
			},
			func(id uint64, p []byte) ([]byte, error) {
				var m wire.SelectResp
				err := m.Decode(p)
				if err == nil && len(m.Classes) < 2 {
					t.Fatalf("dry select of %v cores did not spread: %+v", spread, m)
				}
				return wire.AppendSelectResp(nil, id, &m), err
			}},
		{"reserving select", wire.OpSelectResp,
			func(id uint64) []byte {
				return wire.AppendSelectReq(nil, id, dc, wire.SelectReq{Job: wire.JobMedium, MaxCores: 2, HoldMillis: 60_000})
			},
			func(id uint64, p []byte) ([]byte, error) {
				err := held.Decode(p)
				if err == nil && held.Lease == 0 {
					t.Fatalf("select reserved nothing: %+v", held)
				}
				return wire.AppendSelectResp(nil, id, &held), err
			}},
		{"renew", wire.OpRenewResp,
			func(id uint64) []byte {
				return wire.AppendRenewReq(nil, id, dc, wire.RenewReq{Lease: held.Lease, HoldMillis: 30_000})
			},
			func(id uint64, p []byte) ([]byte, error) {
				var m wire.RenewResp
				err := m.Decode(p)
				return wire.AppendRenewResp(nil, id, &m), err
			}},
		{"release", wire.OpReleaseResp,
			func(id uint64) []byte { return wire.AppendReleaseReq(nil, id, dc, held.Lease) },
			func(id uint64, p []byte) ([]byte, error) {
				var m wire.ReleaseResp
				err := m.Decode(p)
				if err == nil && len(m.Grants) == 0 {
					t.Fatalf("release returned no grants: %+v", m)
				}
				return wire.AppendReleaseResp(nil, id, &m), err
			}},
		{"place", wire.OpPlaceResp,
			func(id uint64) []byte {
				return wire.AppendPlaceReq(nil, id, dc, wire.PlaceReq{Replication: 3, Writer: -1})
			},
			func(id uint64, p []byte) ([]byte, error) {
				var m wire.PlaceResp
				err := m.Decode(p)
				return wire.AppendPlaceResp(nil, id, &m), err
			}},
		{"place block", wire.OpPlaceBlockResp,
			func(id uint64) []byte {
				return wire.AppendPlaceBlockReq(nil, id, dc, wire.PlaceBlockReq{Replication: 3, Writer: -1})
			},
			func(id uint64, p []byte) ([]byte, error) {
				err := block.Decode(p)
				if err == nil && len(block.Replicas) != 3 {
					t.Fatalf("place block: %+v", block)
				}
				return wire.AppendPlaceBlockResp(nil, id, &block), err
			}},
		{"reimage", wire.OpReimageResp,
			func(id uint64) []byte { return wire.AppendReimageReq(nil, id, dc, block.Replicas[0]) },
			func(id uint64, p []byte) ([]byte, error) {
				var m wire.ReimageResp
				err := m.Decode(p)
				if err == nil && m.Lost == 0 {
					t.Fatalf("reimage lost nothing: %+v", m)
				}
				return wire.AppendReimageResp(nil, id, &m), err
			}},
		{"error", wire.OpError,
			func(id uint64) []byte { return wire.AppendReleaseReq(nil, id, dc, held.Lease) }, // released above
			func(id uint64, p []byte) ([]byte, error) {
				var m wire.ErrorResp
				err := m.Decode(p)
				return wire.AppendErrorResp(nil, id, m.Code, string(m.Message)), err
			}},
	}
	for i, st := range steps {
		id := uint64(100 + i)
		frame := st.frame(id)
		h, err := wire.ParseHeader(frame)
		if err != nil {
			t.Fatalf("%s: request frame: %v", st.name, err)
		}
		// The reply is appended after bytes already waiting in the connection's
		// output buffer, as handleConn's pipelined replies are.
		const waiting = "earlier replies"
		out := dispatch([]byte(waiting), h, frame[wire.HeaderSize:])
		if !bytes.HasPrefix(out, []byte(waiting)) {
			t.Fatalf("%s: dispatch overwrote the output buffer", st.name)
		}
		sent := out[len(waiting):]
		rh, err := wire.ParseHeader(sent)
		if err != nil {
			t.Fatalf("%s: reply frame: %v", st.name, err)
		}
		if rh.Op != st.want || rh.ID != id || int(rh.Len) != len(sent)-wire.HeaderSize {
			t.Fatalf("%s: reply header %+v, want op %v id %d over %d payload bytes (%q)",
				st.name, rh, st.want, id, len(sent)-wire.HeaderSize, sent[wire.HeaderSize:])
		}
		again, err := st.recode(id, sent[wire.HeaderSize:])
		if err != nil {
			t.Fatalf("%s: reply does not decode: %v", st.name, err)
		}
		if !bytes.Equal(again, sent) {
			t.Errorf("%s: server sent\n%x\nwire encodes the decoded reply as\n%x", st.name, sent, again)
		}
	}
}

// TestReleasedLeaseOutlivesItsRecordThroughDispatch reserves and releases
// through the binary dispatch while the public Release hands out a lease whose
// record the next reserving select on its shard takes over: that lease keeps
// the grants it was released with, and every release reply reports what its
// own select granted.
func TestReleasedLeaseOutlivesItsRecordThroughDispatch(t *testing.T) {
	const dc = "DC-9"
	svc := newTestService(t)
	defer svc.Close()
	dispatch := service.NewBinaryServer(svc).Dispatcher()
	call := func(frame []byte) []byte {
		t.Helper()
		h, _ := wire.ParseHeader(frame)
		out := dispatch(nil, h, frame[wire.HeaderSize:])
		if rh, err := wire.ParseHeader(out); err != nil || rh.Op == wire.OpError {
			t.Fatalf("request op %v answered %v: %q", h.Op, err, out)
		}
		return out[wire.HeaderSize:]
	}
	reserve := func(cores float64) wire.SelectResp {
		t.Helper()
		var m wire.SelectResp
		if err := m.Decode(call(wire.AppendSelectReq(nil, 1, dc, wire.SelectReq{Job: wire.JobShort, MaxCores: cores, HoldMillis: 60_000}))); err != nil || m.Lease == 0 {
			t.Fatalf("select of %v cores: %+v, %v", cores, m, err)
		}
		return m
	}
	grantedMillis := func(m wire.SelectResp) (total int64) {
		for _, g := range m.Classes {
			total += ledger.ToMillis(g.Granted)
		}
		return total
	}

	first := reserve(3)
	released, err := svc.Release(dc, first.Lease)
	if err != nil || released.TotalMillis() != grantedMillis(first) {
		t.Fatalf("Release: %+v, %v; want %d millis", released, err, grantedMillis(first))
	}
	want := slices.Clone(released.Grants)
	// A lease id carries its shard in its low bits (internal/striped); reserve
	// until one lands on the released lease's shard, so it takes that record.
	var others []wire.SelectResp
	for range 256 {
		m := reserve(1)
		if m.Lease%striped.NumShards == first.Lease%striped.NumShards {
			others = append([]wire.SelectResp{m}, others...)
			break
		}
		others = append(others, m)
	}
	if others[0].Lease%striped.NumShards != first.Lease%striped.NumShards {
		t.Fatal("no reservation landed on the released lease's shard")
	}
	if !slices.Equal(released.Grants, want) {
		t.Fatalf("released lease's grants became %+v once its record was reused, want %+v", released.Grants, want)
	}
	for _, m := range others {
		var rel wire.ReleaseResp
		if err := rel.Decode(call(wire.AppendReleaseReq(nil, 1, dc, m.Lease))); err != nil {
			t.Fatal(err)
		}
		if rel.Lease != m.Lease || rel.TotalMillis != grantedMillis(m) {
			t.Fatalf("release of lease %d reported %+v, want %d millis", m.Lease, rel, grantedMillis(m))
		}
	}
	if st, _ := ledgerStats(svc, dc); st.ActiveLeases != 0 || st.ConservationErrorMillis != 0 {
		t.Fatalf("ledger after releasing everything: %+v", st)
	}
}
