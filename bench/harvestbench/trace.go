package main

import (
	"sort"
	"time"
)

// span is one timed call into a layer: what ran, when (ns since the tracer
// started), which span caused it, and which request it belongs to. Spans of
// one request share Req.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // index into the trace's span list; -1 = a root
	Req    uint32 `json:"req"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer records spans into a buffer preallocated up front, so recording a
// span costs two clock reads and no allocation; the buffer is written out when
// the run ends. A tracer that is off records nothing and costs one branch.
type tracer struct {
	on      bool
	t0      time.Time
	spans   []span
	dropped int // spans that did not fit the buffer
}

func newTracer(capacity int) *tracer {
	return &tracer{on: true, t0: time.Now(), spans: make([]span, 0, capacity)}
}

// begin opens a span and returns its index, or -1 when nothing was recorded.
func (t *tracer) begin(name string, parent int32, req uint32) int32 {
	if !t.on {
		return -1
	}
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Req: req, Start: int64(time.Since(t.t0))})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) {
	if i >= 0 {
		t.spans[i].End = int64(time.Since(t.t0))
	}
}

// spanStats summarises every span of one name.
type spanStats struct {
	Count    int     `json:"count"`
	MedianNs float64 `json:"median_ns"`
	MeanNs   float64 `json:"mean_ns"`
	// SelfMeanNs is the mean self time: the span's duration minus the part of
	// its interval that its child spans cover.
	SelfMeanNs float64 `json:"self_mean_ns"`
}

// selfTimes returns each span's self time: its duration minus the length of
// the union of its children's intervals, clipped to its own interval.
func selfTimes(spans []span) []int64 {
	children := make(map[int32][]int32)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[int32(i)]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// summarize groups spans by name.
func summarize(spans []span) map[string]spanStats {
	self := selfTimes(spans)
	durs := map[string][]float64{}
	selfSum := map[string]float64{}
	for i, s := range spans {
		durs[s.Name] = append(durs[s.Name], float64(s.dur()))
		selfSum[s.Name] += float64(self[i])
	}
	out := make(map[string]spanStats, len(durs))
	for name, d := range durs {
		var sum float64
		for _, v := range d {
			sum += v
		}
		n := float64(len(d))
		out[name] = spanStats{Count: len(d), MedianNs: median(d), MeanNs: sum / n, SelfMeanNs: selfSum[name] / n}
	}
	return out
}

// traceFile is bench/out/trace-<workload>.json.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// SpanOverheadNs is the median duration of an empty span on this box: what
	// recording adds to every span's duration.
	SpanOverheadNs float64              `json:"span_overhead_ns"`
	Dropped        int                  `json:"dropped_spans"`
	Summary        map[string]spanStats `json:"summary"`
	Spans          []span               `json:"spans"`
}
