package obs

import (
	"encoding/binary"
	"encoding/hex"
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// TraceHeader is the HTTP header that carries a request's trace id across
// the JSON dialect, formatted as 16 lowercase hex digits. The router assigns
// one at ingress when the client did not send one, forwards it on the
// backend leg, and echoes it to the client; harvestd does the same for
// directly-addressed requests. On the binary dialect the frame header's
// echoed u64 request id is the trace id — no extra bytes on the wire.
const TraceHeader = "X-Harvest-Trace"

// Span is one timed hop inside a trace: ingress, circuit-breaker wait,
// backend leg, snapshot read, ledger reserve. Offsets are microseconds from
// the trace's start so a router span and a shard span for the same trace id
// line up on one timeline without cross-host clock agreement mattering much.
type Span struct {
	Name    string
	StartUs int64
	DurUs   int64
}

// Dialect labels for Trace.Dialect.
const (
	DialectJSON   = "json"
	DialectBinary = "binary"
)

// maxSpans bounds the per-trace span array. Traces are request-scoped and
// shallow (a handful of hops); a fixed array keeps a trace one flat value the
// ring can hold by copy.
const maxSpans = 8

// Trace is one request's record on one process. A trace in flight is on loan
// from its recorder: Begin lends it to a single goroutine at a time (the
// connection handler, then whoever it hands the request to), and Finish copies
// it into the ring and takes it back — nothing may touch the pointer after
// Finish, because the next Begin (or BeginIn into the same storage) may
// already be filling it. The traces Query returns are copies of their own and
// never change.
type Trace struct {
	ID      uint64
	Dialect string
	Op      string
	DC      string
	JobID   string
	Owner   string
	Status  int
	Start   time.Time
	DurUs   int64
	nspans  int
	spans   [maxSpans]Span
	rec     *Recorder
	pooled  bool // lent by Begin: Finish gives it back
	// seq numbers the trace among everything its recorder published (1-based,
	// set by record): which of two occupants of a ring slot is newer, and
	// whether a reservoir entry is the trace a ring slot also holds.
	seq uint64
}

// NewTraceID draws a random nonzero 64-bit trace id.
func NewTraceID() uint64 {
	for {
		if id := rand.Uint64(); id != 0 {
			return id
		}
	}
}

// FormatTraceID renders an id as the 16-hex-digit wire form, encoded in place
// so the string is its one allocation.
func FormatTraceID(id uint64) string {
	var raw [8]byte
	binary.BigEndian.PutUint64(raw[:], id)
	var b [16]byte
	hex.Encode(b[:], raw[:])
	return string(b[:])
}

// ParseTraceID parses the wire form: up to 16 hex digits, optionally
// 0x-prefixed. Returns false for empty or malformed input or a zero id.
func ParseTraceID(s string) (uint64, bool) {
	if len(s) > 1 && (s[0:2] == "0x" || s[0:2] == "0X") {
		s = s[2:]
	}
	if len(s) == 0 || len(s) > 16 {
		return 0, false
	}
	var id uint64
	for i := 0; i < len(s); i++ {
		c := s[i]
		var v uint64
		switch {
		case c >= '0' && c <= '9':
			v = uint64(c - '0')
		case c >= 'a' && c <= 'f':
			v = uint64(c-'a') + 10
		case c >= 'A' && c <= 'F':
			v = uint64(c-'A') + 10
		default:
			return 0, false
		}
		id = id<<4 | v
	}
	return id, id != 0
}

// Begin starts a trace, lent until its Finish. A zero id gets a fresh random
// one (ingress assignment); a nonzero id is propagated from upstream (header
// or binary frame id). Safe on a nil recorder: returns nil, and every Trace
// method is a no-op on a nil receiver, so untraced builds pay only a nil check.
func (r *Recorder) Begin(id uint64, dialect, op, dc string) *Trace {
	if r == nil {
		return nil
	}
	t := r.BeginIn(r.free.Get().(*Trace), id, dialect, op, dc)
	t.pooled = true
	return t
}

// BeginIn is Begin into t, storage its caller keeps for one trace at a time:
// Finish publishes it and leaves it to the caller. A caller with a fixed set
// of in-flight slots (the router's binary relay) keeps one in each, so a
// burst of frames never grows the recorder's pool.
func (r *Recorder) BeginIn(t *Trace, id uint64, dialect, op, dc string) *Trace {
	if r == nil {
		return nil
	}
	if id == 0 {
		id = NewTraceID()
	}
	*t = Trace{ID: id, Dialect: dialect, Op: op, DC: dc, Start: time.Now(), rec: r}
	return t
}

// SetMeta attaches the optional per-lease operator metadata.
func (t *Trace) SetMeta(jobID, owner string) {
	if t != nil {
		t.JobID = jobID
		t.Owner = owner
	}
}

// Span records one hop that started at start and ends now. Spans beyond the
// fixed capacity are dropped (traces are shallow by construction).
func (t *Trace) Span(name string, start time.Time) {
	if t == nil || t.nspans >= maxSpans {
		return
	}
	t.spans[t.nspans] = Span{
		Name:    name,
		StartUs: start.Sub(t.Start).Microseconds(),
		DurUs:   time.Since(start).Microseconds(),
	}
	t.nspans++
}

// Finish closes the trace with the response status (HTTP status code on both
// dialects — binary error frames carry the equivalent code), publishes a copy
// of it into the recorder and returns the loan: t must not be used again. The
// whole-request window is recorded as the "ingress" span implicitly via DurUs;
// callers add finer spans as they go.
func (t *Trace) Finish(status int) {
	if t == nil {
		return
	}
	t.Status = status
	t.DurUs = time.Since(t.Start).Microseconds()
	r := t.rec
	r.record(t)
	if t.pooled {
		r.free.Put(t)
	}
}

// Spans returns the recorded spans. Only call on published (finished)
// traces, e.g. ones obtained from Query.
func (t *Trace) Spans() []Span { return t.spans[:t.nspans] }

// slowCap bounds the slowest-since-boot reservoir.
const slowCap = 32

// DefaultRingTraces is the per-process ring capacity daemons use unless
// configured otherwise.
const DefaultRingTraces = 1024

// Recorder keeps the last N finished traces in a ring of Trace values plus the
// slowest-since-boot reservoir, and owns the traces in flight (Begin lends,
// Finish takes back), so a request costs the recorder no heap object. A writer
// claims a slot with one atomic add and copies its trace in under that slot's
// own lock; a reader copies matching slots out under the same lock, one slot
// at a time, so neither ever sees half a trace and nobody waits on more than
// one copy. The reservoir takes a tiny mutex, but only when a trace beats the
// current slowest-32 admission threshold (atomic gate), so the steady-state
// hot path never touches it.
type Recorder struct {
	ring   []traceSlot
	cursor atomic.Uint64 // traces published so far: the newest trace's seq

	free sync.Pool // *Trace, idle between a Finish and the next Begin

	slowGate atomic.Int64 // admission bound: DurUs must exceed this
	slowMu   sync.Mutex
	slow     []Trace
}

// traceSlot is one ring entry: empty while t.seq is zero.
type traceSlot struct {
	mu sync.Mutex
	t  Trace
}

// NewRecorder creates a recorder holding the last n traces (minimum 1).
func NewRecorder(n int) *Recorder {
	if n < 1 {
		n = 1
	}
	r := &Recorder{ring: make([]traceSlot, n), slow: make([]Trace, 0, slowCap)}
	r.free.New = func() any { return new(Trace) }
	r.slowGate.Store(-1) // admit everything until the reservoir fills
	return r
}

// record publishes a copy of t; t stays the caller's.
func (r *Recorder) record(t *Trace) {
	t.seq = r.cursor.Add(1)
	s := &r.ring[(t.seq-1)%uint64(len(r.ring))]
	s.mu.Lock()
	// A writer lapped by a whole ring of newer traces must not bury one.
	if t.seq > s.t.seq {
		s.t = *t
	}
	s.mu.Unlock()
	if t.DurUs > r.slowGate.Load() {
		r.offerSlow(t)
	}
}

func (r *Recorder) offerSlow(t *Trace) {
	r.slowMu.Lock()
	defer r.slowMu.Unlock()
	if len(r.slow) < slowCap {
		r.slow = append(r.slow, *t)
		if len(r.slow) == slowCap {
			r.slowGate.Store(r.slowMinLocked())
		}
		return
	}
	min := 0
	for i := range r.slow {
		if r.slow[i].DurUs < r.slow[min].DurUs {
			min = i
		}
	}
	if t.DurUs <= r.slow[min].DurUs {
		return // raced past the gate; a slower trace got there first
	}
	r.slow[min] = *t
	r.slowGate.Store(r.slowMinLocked())
}

func (r *Recorder) slowMinLocked() int64 {
	min := r.slow[0].DurUs
	for i := 1; i < len(r.slow); i++ {
		if d := r.slow[i].DurUs; d < min {
			min = d
		}
	}
	return min
}

// TraceFilter selects traces out of a recorder. Zero values mean "any".
type TraceFilter struct {
	ID     uint64
	DC     string
	MinDur time.Duration
	Limit  int // max traces returned; 0 means 100
}

// Query returns copies of the matching traces, newest first, from both the
// ring and the slow reservoir (deduplicated). The copies are the caller's:
// nothing the recorder does later changes them.
func (r *Recorder) Query(f TraceFilter) []*Trace {
	if r == nil {
		return nil
	}
	limit := f.Limit
	if limit <= 0 {
		limit = 100
	}
	minUs := f.MinDur.Microseconds()
	match := func(t *Trace) bool {
		return t.seq != 0 && (f.ID == 0 || t.ID == f.ID) && (f.DC == "" || t.DC == f.DC) && t.DurUs >= minUs
	}
	var out []*Trace
	seen := make(map[uint64]struct{})
	for i := range r.ring {
		s := &r.ring[i]
		s.mu.Lock()
		if match(&s.t) {
			c := s.t
			out = append(out, &c)
			seen[c.seq] = struct{}{}
		}
		s.mu.Unlock()
	}
	r.slowMu.Lock()
	for i := range r.slow {
		if _, dup := seen[r.slow[i].seq]; !dup && match(&r.slow[i]) {
			c := r.slow[i]
			out = append(out, &c)
		}
	}
	r.slowMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start.After(out[j].Start) })
	if len(out) > limit {
		out = out[:limit]
	}
	return out
}
