package obs

import (
	"sync"
	"testing"
	"time"
)

func TestTraceIDRoundTrip(t *testing.T) {
	ids := []uint64{1, 0xdeadbeef, 1 << 63, ^uint64(0)}
	for _, id := range ids {
		s := FormatTraceID(id)
		if len(s) != 16 {
			t.Fatalf("FormatTraceID(%d) = %q, want 16 hex digits", id, s)
		}
		got, ok := ParseTraceID(s)
		if !ok || got != id {
			t.Fatalf("round trip %d -> %q -> (%d, %v)", id, s, got, ok)
		}
	}
	if s := FormatTraceID(0xab); s != "00000000000000ab" {
		t.Fatalf("FormatTraceID(0xab) = %q", s)
	}
}

func TestParseTraceIDForms(t *testing.T) {
	cases := []struct {
		in   string
		want uint64
		ok   bool
	}{
		{"ab", 0xab, true},
		{"0xAB", 0xab, true},
		{"0XFF", 0xff, true},
		{"00000000000000ab", 0xab, true},
		{"", 0, false},
		{"0", 0, false}, // zero id is "no trace"
		{"0000000000000000", 0, false},
		{"xyz", 0, false},
		{"0123456789abcdef0", 0, false}, // 17 digits
		{"12 34", 0, false},
	}
	for _, c := range cases {
		got, ok := ParseTraceID(c.in)
		if got != c.want || ok != c.ok {
			t.Fatalf("ParseTraceID(%q) = (%d, %v), want (%d, %v)", c.in, got, ok, c.want, c.ok)
		}
	}
}

func TestNilRecorderAndTraceAreNoOps(t *testing.T) {
	var r *Recorder
	tr := r.Begin(0, DialectJSON, "select", "DC-9")
	if tr != nil {
		t.Fatalf("nil recorder Begin returned a trace")
	}
	// Every method must be callable on the nil trace.
	tr.SetDC("DC-9")
	tr.SetOp("release")
	tr.SetMeta("job", "owner")
	tr.Span("leg", time.Now())
	tr.Finish(200)
	if got := r.Query(TraceFilter{}); got != nil {
		t.Fatalf("nil recorder Query = %v", got)
	}
}

func TestBeginAssignsAndPropagatesIDs(t *testing.T) {
	r := NewRecorder(8)
	if tr := r.Begin(0, DialectJSON, "select", ""); tr.ID == 0 {
		t.Fatalf("ingress Begin left a zero id")
	}
	if tr := r.Begin(42, DialectBinary, "select", ""); tr.ID != 42 {
		t.Fatalf("propagated Begin rewrote the id: %d", tr.ID)
	}
}

func TestTraceLifecyclePublishesSpans(t *testing.T) {
	r := NewRecorder(8)
	tr := r.Begin(7, DialectJSON, "select", "")
	tr.SetDC("DC-9")
	tr.SetMeta("nightly-etl", "alice")
	start := time.Now()
	tr.Span("ledger_reserve", start)
	tr.Finish(200)

	got := r.Query(TraceFilter{ID: 7})
	if len(got) != 1 {
		t.Fatalf("Query by id returned %d traces", len(got))
	}
	pub := got[0]
	if pub.DC != "DC-9" || pub.JobID != "nightly-etl" || pub.Owner != "alice" || pub.Status != 200 {
		t.Fatalf("published trace fields: %+v", pub)
	}
	spans := pub.Spans()
	if len(spans) != 1 || spans[0].Name != "ledger_reserve" {
		t.Fatalf("published spans: %+v", spans)
	}

	// Span slots beyond the fixed capacity drop silently.
	tr2 := r.Begin(8, DialectJSON, "select", "DC-9")
	for i := 0; i < maxSpans+3; i++ {
		tr2.Span("hop", start)
	}
	tr2.Finish(200)
	if n := len(r.Query(TraceFilter{ID: 8})[0].Spans()); n != maxSpans {
		t.Fatalf("span overflow kept %d spans, want %d", n, maxSpans)
	}
}

// put publishes a hand-built trace so tests control DurUs exactly.
func put(r *Recorder, id uint64, durUs int64, dc string) {
	r.record(&Trace{ID: id, Dialect: DialectJSON, Op: "select", DC: dc,
		Start: time.Now(), DurUs: durUs, rec: r})
}

func TestRingWrapKeepsNewestAndSlowest(t *testing.T) {
	r := NewRecorder(4)
	// 40 traces, latency == id µs. The ring keeps the newest 4 (37..40); the
	// slow reservoir keeps the 32 slowest (9..40). The union is 9..40.
	for id := uint64(1); id <= 40; id++ {
		put(r, id, int64(id), "DC-9")
	}
	got := r.Query(TraceFilter{Limit: 1000})
	if len(got) != 32 {
		t.Fatalf("query returned %d traces, want 32", len(got))
	}
	for _, tr := range got {
		if tr.ID < 9 {
			t.Fatalf("trace %d survived both the ring wrap and the reservoir", tr.ID)
		}
	}
	if len(r.Query(TraceFilter{ID: 3})) != 0 {
		t.Fatalf("evicted trace still resolvable")
	}
	if len(r.Query(TraceFilter{ID: 40})) != 1 {
		t.Fatalf("newest trace missing")
	}
	// The slowest-ever trace stays resolvable even after the ring wraps past
	// it many times over.
	put(r, 999, 1_000_000, "DC-9")
	for id := uint64(100); id < 120; id++ {
		put(r, id, 50, "DC-9")
	}
	if len(r.Query(TraceFilter{ID: 999})) != 1 {
		t.Fatalf("slowest trace evicted from the reservoir")
	}
}

func TestQueryFilters(t *testing.T) {
	r := NewRecorder(64)
	base := time.Now()
	putAt := func(id uint64, durUs int64, dc string, off time.Duration) {
		r.record(&Trace{ID: id, Dialect: DialectJSON, Op: "select", DC: dc,
			Start: base.Add(off), DurUs: durUs, rec: r})
	}
	putAt(1, 10, "DC-9", 0)
	putAt(2, 2000, "DC-9", time.Millisecond)
	putAt(3, 30, "DC-8", 2*time.Millisecond)

	if got := r.Query(TraceFilter{DC: "DC-8"}); len(got) != 1 || got[0].ID != 3 {
		t.Fatalf("DC filter: %+v", got)
	}
	if got := r.Query(TraceFilter{MinDur: time.Millisecond}); len(got) != 1 || got[0].ID != 2 {
		t.Fatalf("MinDur filter: %+v", got)
	}
	if got := r.Query(TraceFilter{ID: 1, DC: "DC-8"}); len(got) != 0 {
		t.Fatalf("conjunctive filter matched: %+v", got)
	}
	if got := r.Query(TraceFilter{Limit: 2}); len(got) != 2 {
		t.Fatalf("limit ignored: %d traces", len(got))
	}
	// Newest first.
	got := r.Query(TraceFilter{})
	if len(got) != 3 || got[0].ID != 3 || got[2].ID != 1 {
		t.Fatalf("ordering: %+v", got)
	}
}

// hammerTrace fills a lent trace so that every field is a function of its id,
// and hammerTorn says whether a trace read back still is one — a trace mixing
// two writers' fields, or one a recycled Begin was refilling, is not.
var (
	hammerOps = []string{"select", "release", "renew", "place", "classes"}
	hammerDCs = []string{"DC-1", "DC-4", "DC-9"}
	hammerTag = []string{"a", "bb", "ccc", "dddd", "eeeee", "ffffff", "ggggggg"}
)

func hammerTrace(r *Recorder, id uint64) {
	tr := r.Begin(id, DialectBinary, hammerOps[id%5], hammerDCs[id%3])
	tr.SetMeta(hammerTag[id%7], hammerTag[(id+1)%7])
	for i := uint64(0); i < id%(maxSpans+1); i++ {
		tr.Span(hammerTag[(id+i)%7], tr.Start)
	}
	tr.Finish(int(id % 600))
}

func hammerTorn(tr *Trace) bool {
	id := tr.ID
	if tr.Dialect != DialectBinary || tr.Op != hammerOps[id%5] || tr.DC != hammerDCs[id%3] ||
		tr.JobID != hammerTag[id%7] || tr.Owner != hammerTag[(id+1)%7] || tr.Status != int(id%600) ||
		uint64(len(tr.Spans())) != id%(maxSpans+1) {
		return true
	}
	for i, sp := range tr.Spans() {
		if sp.Name != hammerTag[(id+uint64(i))%7] {
			return true
		}
	}
	return false
}

// TestRecorderConcurrent hammers the lend/return cycle and Query together:
// eight writers publish traces whose every field encodes their id while
// readers query. No trace a reader gets may be torn, and none may change once
// a reader holds it — the ring holds values and Query hands out copies, so a
// slot being overwritten or a trace being re-lent touches nothing a reader
// has. Run it with -race -count=10.
func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder(32)
	const writers, perWriter = 8, 2000
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				hammerTrace(r, uint64(g*perWriter+i+1))
			}
		}(g)
	}
	type held struct {
		tr   *Trace
		copy Trace
	}
	writing := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			var kept []held
			for done := false; !done; {
				select {
				case <-writing:
					done = true // one more pass over the final state
				default:
				}
				f := TraceFilter{Limit: 64}
				if g == 1 {
					f.DC = "DC-9"
				}
				for _, tr := range r.Query(f) {
					if hammerTorn(tr) {
						t.Errorf("Query returned a torn trace: %+v", *tr)
						return
					}
					if len(kept) < 4096 {
						kept = append(kept, held{tr, *tr})
					}
				}
			}
			for _, h := range kept {
				if *h.tr != h.copy {
					t.Errorf("trace %d changed after Query returned it:\n was %+v\n now %+v", h.copy.ID, h.copy, *h.tr)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(writing)
	readers.Wait()
	if got := len(r.Query(TraceFilter{Limit: 1000})); got < 32 {
		t.Errorf("recorder holds %d traces after %d were published, want at least its ring of 32", got, writers*perWriter)
	}
}
