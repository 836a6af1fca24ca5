package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"harvest/internal/service"
)

// chainRequests is how much of a workload's request stream the traced run
// replays in-process: enough for steady medians, small enough to keep the
// trace file readable.
const chainRequests = 4000

// chainLayers are the internal/ packages a request's chain spans belong to; a
// span's layer is the first dotted element of its name.
var chainLayers = []string{"wire", "service", "core", "ledger", "blockledger"}

// traceWorkload replays the head of w's request stream (connection 0) through
// the in-process chains on a fresh service, writes the trace file, and reports
// where a request's time goes, layer by layer, for this workload's mix.
func (e *env) traceWorkload(w *workload, res *result) error {
	svc, err := service.New(e.serviceConfig(""))
	if err != nil {
		return err
	}
	defer svc.Close()

	// The same replay untraced and traced: the difference is what tracing
	// costs, and the reason end-to-end numbers are never taken with it on.
	elapsed := func(tr *tracer) (time.Duration, error) {
		rp, err := newReplayer(tr, svc, e.servers, e.seed)
		if err != nil {
			return 0, err
		}
		start := time.Now()
		rp.run(newStream(e.seed, 0, w.mix), chainRequests, w.json)
		took := time.Since(start)
		if rp.tally.failed > 0 {
			return 0, fmt.Errorf("%d of %d requests failed, first: %s", rp.tally.failed, rp.tally.attempted, rp.tally.firstErr)
		}
		return took, rp.drain()
	}
	// Alternate the two a few times and keep each side's fastest pass, so one
	// host hiccup does not decide the sign of the difference.
	if _, err = elapsed(&tracer{}); err != nil { // warm-up, untimed
		return err
	}
	var tr *tracer
	untraced, traced := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for pass := 0; pass < 3; pass++ {
		took, err := elapsed(&tracer{})
		if err != nil {
			return err
		}
		untraced = min(untraced, took)
		tr = newTracer(chainRequests * 12)
		if took, err = elapsed(tr); err != nil {
			return err
		}
		traced = min(traced, took)
	}
	res.set("bench.trace_overhead_pct", 100*(traced.Seconds()-untraced.Seconds())/untraced.Seconds(), "%")

	summary := summarize(tr.spans)
	overhead := res.Metrics["bench.span_overhead_ns"].Value
	// Per request: the request span's mean, and each layer's mean self time
	// inside the two chains. The service layer's share is the service span
	// less what the assembled chain shows the layers below it cost.
	perReq := map[string]float64{}
	for name, st := range summary {
		layer, _, _ := strings.Cut(name, ".")
		if !slices.Contains(chainLayers, layer) || name == "wire.encode_req" || name == "wire.decode_resp" {
			continue // chain roots, and the client's side of the codec
		}
		perReq[layer] += (st.MeanNs - overhead) * float64(st.Count) / chainRequests
	}
	perReq["service"] -= perReq["core"] + perReq["ledger"] + perReq["blockledger"]
	res.set("chain.request_ns", summary["request"].MeanNs-overhead, "ns")
	for _, layer := range chainLayers {
		res.set("chain."+layer+"_ns_per_req", max(perReq[layer], 0), "ns")
	}

	tf := traceFile{Workload: w.name, Seed: e.seed, SpanOverheadNs: overhead, Dropped: tr.dropped, Summary: summary, Spans: tr.spans}
	path := filepath.Join(e.outDir, "trace-"+w.name+".json")
	if err := writeJSON(path, tf); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "harvestbench: wrote %s (%d spans)\n", path, len(tr.spans))
	return nil
}
