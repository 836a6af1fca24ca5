package service_test

import (
	"testing"

	"harvest/internal/service"
	"harvest/internal/wire"
)

// TestBinaryDispatchAllocs is the serving path's object budget on harvestd
// (DESIGN.md "Hot paths"): with a connection's scratch warm and the recorder
// tracing every frame, a request costs the heap nothing — a reserving select
// included, its lease record reusing the one the releases before it freed.
func TestBinaryDispatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const dc = "DC-9"
	svc := newTestService(t)
	defer svc.Close()
	bin := service.NewBinaryServer(svc)
	service.NewAPI(svc).AttachBinary(bin, "") // lends the API's trace recorder
	dispatch := bin.Dispatcher()

	out := make([]byte, 0, 64<<10)
	// call dispatches one request frame and returns the response's header and
	// payload (aliasing out).
	call := func(frame []byte) (wire.Header, []byte) {
		h, err := wire.ParseHeader(frame)
		if err != nil {
			t.Fatalf("request frame: %v", err)
		}
		out = dispatch(out[:0], h, frame[wire.HeaderSize:])
		rh, err := wire.ParseHeader(out)
		if err != nil {
			t.Fatalf("response frame: %v", err)
		}
		return rh, out[wire.HeaderSize:]
	}
	mustOK := func(name string, frame []byte) []byte {
		rh, payload := call(frame)
		if rh.Op == wire.OpError {
			t.Fatalf("%s answered an error frame: %q", name, payload)
		}
		return payload
	}

	var classes wire.ClassesResp
	if err := classes.Decode(mustOK("classes", wire.AppendClassesReq(nil, 1, dc))); err != nil {
		t.Fatal(err)
	}
	server := classes.Classes[0].ExampleServer
	var held wire.SelectResp
	if err := held.Decode(mustOK("select", wire.AppendSelectReq(nil, 1, dc, wire.SelectReq{Job: wire.JobMedium, MaxCores: 2}))); err != nil || held.Lease == 0 {
		t.Fatalf("standing select: %+v, %v", held, err)
	}

	// spread is a demand no single class can host, so selection spreads it
	// (Alg. 1's second phase, which has buffers of its own to keep warm).
	spread := 0.0
	for cores := 64.0; cores < 1e6 && spread == 0; cores *= 2 {
		var m wire.SelectResp
		if err := m.Decode(mustOK("select", wire.AppendSelectReq(nil, 1, dc, wire.SelectReq{Job: wire.JobShort, Flags: wire.SelectFlagDryRun, MaxCores: cores}))); err != nil {
			t.Fatal(err)
		}
		if len(m.Classes) > 1 {
			spread = cores
		}
	}
	if spread == 0 {
		t.Fatal("no demand spreads over several classes")
	}

	var frame []byte
	// leases feeds release one fresh lease per call: the warm-up's, and
	// AllocsPerRun runs the function once more than it counts.
	const runs = 200
	var leases []uint64
	for i := 0; i < runs+2; i++ {
		var m wire.SelectResp
		if err := m.Decode(mustOK("select", wire.AppendSelectReq(nil, 1, dc, wire.SelectReq{Job: wire.JobShort, MaxCores: 1}))); err != nil || m.Lease == 0 {
			t.Fatalf("select for release: %+v, %v", m, err)
		}
		leases = append(leases, m.Lease)
	}
	budgets := []struct {
		name string
		max  float64
		next func() []byte
	}{
		{"dry select", 0, func() []byte {
			return wire.AppendSelectReq(frame[:0], 1, dc, wire.SelectReq{Job: wire.JobMedium, Flags: wire.SelectFlagDryRun, MaxCores: 4})
		}},
		{"dry spread select", 0, func() []byte {
			return wire.AppendSelectReq(frame[:0], 1, dc, wire.SelectReq{Job: wire.JobShort, Flags: wire.SelectFlagDryRun, MaxCores: spread})
		}},
		{"renew", 0, func() []byte {
			return wire.AppendRenewReq(frame[:0], 1, dc, wire.RenewReq{Lease: held.Lease, HoldMillis: 30_000})
		}},
		{"classes", 0, func() []byte { return wire.AppendClassesReq(frame[:0], 1, dc) }},
		{"server class", 0, func() []byte { return wire.AppendServerClassReq(frame[:0], 1, dc, server) }},
		{"place", 0, func() []byte {
			return wire.AppendPlaceReq(frame[:0], 1, dc, wire.PlaceReq{Replication: 3, Writer: -1})
		}},
		{"release", 0, func() []byte {
			id := leases[len(leases)-1]
			leases = leases[:len(leases)-1]
			return wire.AppendReleaseReq(frame[:0], 1, dc, id)
		}},
		{"reserving select", 0, func() []byte {
			return wire.AppendSelectReq(frame[:0], 1, dc, wire.SelectReq{Job: wire.JobShort, MaxCores: 1, HoldMillis: 1000})
		}},
	}
	for _, b := range budgets {
		frame = b.next()
		mustOK(b.name, frame) // warms the scratch for this shape of request
		got := testing.AllocsPerRun(runs, func() {
			frame = b.next()
			h, _ := wire.ParseHeader(frame)
			out = dispatch(out[:0], h, frame[wire.HeaderSize:])
			if wire.Op(out[2]) == wire.OpError {
				t.Fatalf("%s answered an error frame: %q", b.name, out[wire.HeaderSize:])
			}
		})
		if got > b.max {
			t.Errorf("%s: %v allocs per request, budget %v", b.name, got, b.max)
		}
	}
}
