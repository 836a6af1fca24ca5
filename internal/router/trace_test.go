package router_test

// End-to-end trace reconstruction across tiers: one request through the
// router must leave joinable trace records — same trace id — in both the
// router's recorder and the owning shard's, on the JSON dialect (header
// propagation) and the binary dialect (the echoed frame id).

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"harvest/internal/obs"
	"harvest/internal/router"
	"harvest/internal/service"
	"harvest/internal/wire"
)

func spanSet(tr *obs.Trace) map[string]bool {
	out := map[string]bool{}
	for _, s := range tr.Spans() {
		out[s.Name] = true
	}
	return out
}

// mustTrace queries one recorder for exactly one trace with the id.
func mustTrace(t *testing.T, rec *obs.Recorder, id uint64, tier string) *obs.Trace {
	t.Helper()
	traces := rec.Query(obs.TraceFilter{ID: id})
	if len(traces) != 1 {
		t.Fatalf("%s recorder has %d traces for id %#x, want 1", tier, len(traces), id)
	}
	return traces[0]
}

func TestTraceReconstructionJSON(t *testing.T) {
	rt, srv := newTestRouter(t, nil)

	svc := newBackendService(t, "DC-9")
	api := service.NewAPI(svc)
	backend := httptest.NewServer(api)
	t.Cleanup(backend.Close)
	mustRegister(t, srv.URL, router.RegisterRequest{
		ID: "node-a", URL: backend.URL,
		Datacenters: []router.RegisterDatacenter{{Name: "DC-9", Generation: 1}},
	})

	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/DC-9/select",
		strings.NewReader(`{"job_type":"medium","max_concurrent_cores":8,"hold_seconds":60,"job_id":"etl","owner":"alice"}`))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.TraceHeader, "00000000000000bb")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("select via router: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("select via router: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(obs.TraceHeader); got != "00000000000000bb" {
		t.Fatalf("router trace echo = %q", got)
	}

	// Router hop: ingress trace with the breaker wait and the backend leg.
	rtr := mustTrace(t, rt.Recorder(), 0xbb, "router")
	if rtr.DC != "DC-9" || rtr.Dialect != obs.DialectJSON || rtr.Status != http.StatusOK {
		t.Fatalf("router trace = %+v", rtr)
	}
	spans := spanSet(rtr)
	if !spans["breaker_wait"] || !spans["backend_leg"] {
		t.Fatalf("router spans = %v, want breaker_wait and backend_leg", spans)
	}

	// Shard hop: same id, service-side spans, the lease metadata.
	str := mustTrace(t, api.Recorder(), 0xbb, "shard")
	if str.DC != "DC-9" || str.JobID != "etl" || str.Owner != "alice" {
		t.Fatalf("shard trace = %+v", str)
	}
	spans = spanSet(str)
	if !spans["snapshot_read"] || !spans["ledger_reserve"] {
		t.Fatalf("shard spans = %v, want snapshot_read and ledger_reserve", spans)
	}
}

func TestTraceReconstructionBinary(t *testing.T) {
	rt, srv := newTestRouter(t, nil)
	binFront := startRouterBinary(t, rt)

	// DC-9: binary-capable backend, recorder shared between the JSON API and
	// the binary server exactly as cmd/harvestd wires it.
	svcBin := newBackendService(t, "DC-9")
	apiBin := service.NewAPI(svcBin)
	apiSrvBin := httptest.NewServer(apiBin)
	t.Cleanup(apiSrvBin.Close)
	bs := service.NewBinaryServer(svcBin)
	bsAddr, _, err := bs.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatalf("backend binary listen: %v", err)
	}
	t.Cleanup(bs.Close)
	apiBin.AttachBinary(bs, bsAddr.String())
	mustRegister(t, srv.URL, router.RegisterRequest{
		ID: "node-bin", URL: apiSrvBin.URL, BinaryAddr: bsAddr.String(),
		Datacenters: []router.RegisterDatacenter{{Name: "DC-9", Generation: 1}},
	})

	c := dialBin(t, binFront)

	// Native forwarding: the frame id is the trace id on both tiers.
	h, _ := c.roundTrip(wire.AppendSelectReq(nil, 0xcafe, "DC-9",
		wire.SelectReq{Job: wire.JobShort, MaxCores: 2}))
	if h.Op != wire.OpSelectResp || h.ID != 0xcafe {
		t.Fatalf("native select: header %+v", h)
	}
	rtr := mustTrace(t, rt.Recorder(), 0xcafe, "router")
	if rtr.Dialect != obs.DialectBinary || rtr.DC != "DC-9" || rtr.Op != "select" {
		t.Fatalf("router binary trace = %+v", rtr)
	}
	if spans := spanSet(rtr); !spans["backend_leg"] {
		t.Fatalf("router binary spans = %v, want backend_leg", spans)
	}
	str := mustTrace(t, apiBin.Recorder(), 0xcafe, "shard")
	if str.Dialect != obs.DialectBinary || str.DC != "DC-9" {
		t.Fatalf("shard binary trace = %+v", str)
	}
	if spans := spanSet(str); !spans["snapshot_read"] || !spans["ledger_reserve"] {
		t.Fatalf("shard binary spans = %v", spans)
	}

	// A frame sent with id 0 gets a router-assigned trace id, and the shard
	// must trace it under that same id — the relay carries the router's, not
	// the zero the client sent — while the response still echoes 0. It is the
	// only DC-9 classes request either recorder has seen.
	h, _ = c.roundTrip(wire.AppendClassesReq(nil, 0, "DC-9"))
	if h.Op != wire.OpClassesResp || h.ID != 0 {
		t.Fatalf("id-0 classes: header %+v", h)
	}
	minted := func(rec *obs.Recorder, tier string) uint64 {
		var ids []uint64
		for _, tr := range rec.Query(obs.TraceFilter{DC: "DC-9"}) {
			if tr.Op == "classes" && tr.Dialect == obs.DialectBinary {
				ids = append(ids, tr.ID)
			}
		}
		if len(ids) != 1 || ids[0] == 0 {
			t.Fatalf("%s recorder traced the id-0 frame under %#x, want one nonzero id", tier, ids)
		}
		return ids[0]
	}
	if rid, sid := minted(rt.Recorder(), "router"), minted(apiBin.Recorder(), "shard"); rid != sid {
		t.Fatalf("id-0 frame traced under %#x at the router and %#x at the shard: the tiers cannot be joined", rid, sid)
	}
}
