package service_test

import (
	"reflect"
	"testing"

	"harvest/internal/service"
	"harvest/internal/wire"
)

// decoder is a reply message.
type decoder interface{ Decode([]byte) error }

// reuseSide is one of the two services TestBinaryRepliesReuseScratch drives.
type reuseSide struct {
	t    *testing.T
	svc  *service.Service
	bin  *service.BinaryServer
	conn func(out []byte, h wire.Header, payload []byte) []byte // one scratch for every call
}

// call serves frame on dispatch with the service's draws reseeded, and
// returns the reply's opcode and payload.
func (s *reuseSide) call(dispatch func([]byte, wire.Header, []byte) []byte, frame []byte) (wire.Op, []byte) {
	s.t.Helper()
	s.svc.ReseedDraws(1)
	h, err := wire.ParseHeader(frame)
	if err != nil {
		s.t.Fatalf("request frame: %v", err)
	}
	out := dispatch(nil, h, frame[wire.HeaderSize:])
	rh, err := wire.ParseHeader(out)
	if err != nil {
		s.t.Fatalf("reply frame: %v", err)
	}
	return rh.Op, out[wire.HeaderSize:]
}

// ok serves frame on a throwaway scratch and decodes its reply into m.
func (s *reuseSide) ok(frame []byte, m decoder) {
	s.t.Helper()
	op, payload := s.call(s.bin.Dispatcher(), frame)
	if op == wire.OpError || m.Decode(payload) != nil {
		s.t.Fatalf("%v answered %v: %q", wire.Op(frame[2]), op, payload)
	}
}

// TestBinaryRepliesReuseScratch is the frame side of TestJSONDataPlaneAllocs's
// "reply bytes": each operation fills its reply in storage the connection's
// scratch keeps, so a reply served right after a longer or different one must
// decode equal to the same request served from a fresh scratch. Two services
// booted alike serve the same requests with the same draws: one on a single
// connection scratch throughout, the other with each transition's second
// request on a fresh one. Ids the ledgers mint at random, and the seconds a
// lease has left, are compared for presence only.
func TestBinaryRepliesReuseScratch(t *testing.T) {
	const dc = "DC-9"
	var reused, fresh reuseSide
	for _, s := range []*reuseSide{&reused, &fresh} {
		s.t, s.svc = t, newTestService(t)
		defer s.svc.Close()
		s.bin = service.NewBinaryServer(s.svc)
		s.conn = s.bin.Dispatcher()
	}
	var classes wire.ClassesResp
	reused.ok(wire.AppendClassesReq(nil, 1, dc), &classes)
	// spread is a demand no single class can host, so selection spreads it.
	spread := 0.0
	for cores := 64.0; cores < 1e6 && spread == 0; cores *= 2 {
		var m wire.SelectResp
		reused.ok(wire.AppendSelectReq(nil, 1, dc, wire.SelectReq{Job: wire.JobShort, Flags: wire.SelectFlagDryRun, MaxCores: cores}), &m)
		if len(m.Classes) > 1 {
			spread = cores
		}
	}
	if spread == 0 {
		t.Fatal("no demand spreads over several classes")
	}
	spreadSelect := wire.SelectReq{Job: wire.JobShort, MaxCores: spread}
	oneClass, twoCores := wire.SelectReq{Job: wire.JobShort, MaxCores: 1}, wire.SelectReq{Job: wire.JobShort, MaxCores: 2}
	dry := func(m wire.SelectReq) wire.SelectReq { m.Flags = wire.SelectFlagDryRun; return m }
	// lease reserves m on s and returns its id.
	lease := func(s *reuseSide, m wire.SelectReq) uint64 {
		var r wire.SelectResp
		s.ok(wire.AppendSelectReq(nil, 1, dc, m), &r)
		if r.Lease == 0 {
			s.t.Fatalf("select %+v reserved nothing", m)
		}
		return r.Lease
	}
	// server holds replicas of blocks placed on s.
	server := func(s *reuseSide, blocks int) int64 {
		var b wire.PlaceBlockResp
		for range blocks {
			s.ok(wire.AppendPlaceBlockReq(nil, 1, dc, wire.PlaceBlockReq{Replication: 3, Writer: -1}), &b)
		}
		return b.Replicas[0]
	}

	transitions := []struct {
		name string
		// frames builds the transition's two requests on one side.
		frames func(s *reuseSide) (first, second []byte)
		// reply is a value the second reply decodes into, and longer checks
		// that the first reply outgrew it.
		reply  func() decoder
		longer func(first, second any) bool
	}{
		{"spread select, then one class", func(*reuseSide) ([]byte, []byte) {
			return wire.AppendSelectReq(nil, 1, dc, dry(spreadSelect)), wire.AppendSelectReq(nil, 2, dc, dry(oneClass))
		}, func() decoder { return new(wire.SelectResp) }, func(a, b any) bool {
			return len(a.(*wire.SelectResp).Classes) > len(b.(*wire.SelectResp).Classes)
		}},
		{"release of a spread lease, then of a one-class lease", func(s *reuseSide) ([]byte, []byte) {
			return wire.AppendReleaseReq(nil, 1, dc, lease(s, spreadSelect)), wire.AppendReleaseReq(nil, 2, dc, lease(s, oneClass))
		}, func() decoder { return new(wire.ReleaseResp) }, func(a, b any) bool {
			return len(a.(*wire.ReleaseResp).Grants) > len(b.(*wire.ReleaseResp).Grants)
		}},
		{"reserving select, then a dry run", func(*reuseSide) ([]byte, []byte) {
			return wire.AppendSelectReq(nil, 1, dc, oneClass), wire.AppendSelectReq(nil, 2, dc, dry(oneClass))
		}, func() decoder { return new(wire.SelectResp) }, func(a, b any) bool {
			return a.(*wire.SelectResp).Lease != 0 && a.(*wire.SelectResp).Classes[0].Granted > 0
		}},
		{"renew, then renew another lease", func(s *reuseSide) ([]byte, []byte) {
			return wire.AppendRenewReq(nil, 1, dc, wire.RenewReq{Lease: lease(s, twoCores), HoldMillis: 600_000}),
				wire.AppendRenewReq(nil, 2, dc, wire.RenewReq{Lease: lease(s, oneClass), HoldMillis: 1_000})
		}, func() decoder { return new(wire.RenewResp) }, func(a, b any) bool {
			return a.(*wire.RenewResp).TotalMillis > b.(*wire.RenewResp).TotalMillis
		}},
		{"place 4 replicas, then 3", func(*reuseSide) ([]byte, []byte) {
			return wire.AppendPlaceReq(nil, 1, dc, wire.PlaceReq{Replication: 4, Writer: -1}),
				wire.AppendPlaceReq(nil, 2, dc, wire.PlaceReq{Replication: 3, Writer: -1})
		}, func() decoder { return new(wire.PlaceResp) }, func(a, b any) bool {
			return len(a.(*wire.PlaceResp).Replicas) > len(b.(*wire.PlaceResp).Replicas)
		}},
		{"create a 4-replica block, then a 3-replica one", func(*reuseSide) ([]byte, []byte) {
			return wire.AppendPlaceBlockReq(nil, 1, dc, wire.PlaceBlockReq{Replication: 4, Writer: -1}),
				wire.AppendPlaceBlockReq(nil, 2, dc, wire.PlaceBlockReq{Replication: 3, Writer: -1})
		}, func() decoder { return new(wire.PlaceBlockResp) }, func(a, b any) bool {
			return len(a.(*wire.PlaceBlockResp).Replicas) > len(b.(*wire.PlaceBlockResp).Replicas)
		}},
		{"reimage a loaded server, then an empty one", func(s *reuseSide) ([]byte, []byte) {
			return wire.AppendReimageReq(nil, 1, dc, server(s, 20)), wire.AppendReimageReq(nil, 2, dc, 1<<40)
		}, func() decoder { return new(wire.ReimageResp) }, func(a, b any) bool {
			return a.(*wire.ReimageResp).Lost > b.(*wire.ReimageResp).Lost
		}},
		{"classes, then server class", func(*reuseSide) ([]byte, []byte) {
			return wire.AppendClassesReq(nil, 1, dc), wire.AppendServerClassReq(nil, 2, dc, classes.Classes[0].ExampleServer)
		}, func() decoder { return new(wire.ServerClassResp) }, func(a, b any) bool { return true }},
		{"server class, then classes", func(*reuseSide) ([]byte, []byte) {
			return wire.AppendServerClassReq(nil, 1, dc, classes.Classes[1].ExampleServer), wire.AppendClassesReq(nil, 2, dc)
		}, func() decoder { return new(wire.ClassesResp) }, func(a, b any) bool { return true }},
	}
	for _, tc := range transitions {
		t.Run(tc.name, func(t *testing.T) {
			reused.t, fresh.t = t, t
			firstR, secondR := tc.frames(&reused)
			firstF, secondF := tc.frames(&fresh)
			first := tc.reply()
			if op, payload := reused.call(reused.conn, firstR); op == wire.OpError {
				t.Fatalf("first request answered %q", payload)
			} else if first.Decode(payload) != nil {
				// Another op's reply: only the second is compared.
				first = nil
			}
			got, want := tc.reply(), tc.reply()
			if op, payload := reused.call(reused.conn, secondR); op == wire.OpError || got.Decode(payload) != nil {
				t.Fatalf("second request on the reused scratch answered %v: %q", op, payload)
			}
			fresh.call(fresh.bin.Dispatcher(), firstF)
			if op, payload := fresh.call(fresh.bin.Dispatcher(), secondF); op == wire.OpError || want.Decode(payload) != nil {
				t.Fatalf("second request on a fresh scratch answered %v: %q", op, payload)
			}
			if first != nil && !tc.longer(first, got) {
				t.Fatalf("the first reply %+v does not outgrow the second %+v", first, got)
			}
			if m, ok := got.(*wire.SelectResp); ok && m.Lease == 0 {
				for _, g := range m.Classes {
					if g.Granted != 0 {
						t.Errorf("a dry run's reply grants %v cores in class %d", g.Granted, g.Class)
					}
				}
			}
			normalize(t, got)
			normalize(t, want)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("from the reused scratch\n%+v\nfrom a fresh one\n%+v", got, want)
			}
		})
	}
}

// normalize zeroes what two services need not agree on: the lease and block
// ids each ledger mints at random, and the seconds a lease has left. Each must
// be present.
func normalize(t *testing.T, m any) {
	t.Helper()
	present := func(ok bool) {
		if !ok {
			t.Errorf("reply %+v lacks an id or an expiry", m)
		}
	}
	switch m := m.(type) {
	case *wire.ReleaseResp:
		present(m.Lease != 0)
		m.Lease = 0
	case *wire.RenewResp:
		present(m.Lease != 0 && m.ExpiresIn > 0)
		m.Lease, m.ExpiresIn = 0, 0
	case *wire.PlaceBlockResp:
		present(m.Block != 0)
		m.Block = 0
	}
}
