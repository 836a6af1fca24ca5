package telemetry

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"harvest/internal/tenant"
	"harvest/internal/timeseries"
)

func TestRingAppendAndSnapshot(t *testing.T) {
	r := NewRing(4)
	if r.Len() != 0 {
		t.Fatalf("empty ring Len = %d", r.Len())
	}
	if _, ok := r.Last(); ok {
		t.Fatal("empty ring has a Last sample")
	}
	for i := 1; i <= 3; i++ {
		r.Append(time.Duration(i)*time.Minute, float64(i)/10)
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.Len())
	}
	last, ok := r.Last()
	if !ok || last.At != 3*time.Minute || last.Value != 0.3 {
		t.Fatalf("Last = %+v, %v", last, ok)
	}
	got := r.Snapshot(nil)
	if len(got) != 3 {
		t.Fatalf("snapshot len = %d, want 3", len(got))
	}
	for i, s := range got {
		if s.At != time.Duration(i+1)*time.Minute {
			t.Errorf("sample %d at %v, want %v (oldest first)", i, s.At, time.Duration(i+1)*time.Minute)
		}
	}
}

func TestRingWrapsAndKeepsNewest(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 10; i++ {
		r.Append(time.Duration(i)*time.Minute, float64(i))
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want capacity 4", r.Len())
	}
	got := r.Snapshot(nil)
	for i, s := range got {
		want := float64(6 + i)
		if s.Value != want {
			t.Errorf("sample %d value %v, want %v", i, s.Value, want)
		}
	}
	// Snapshot appends to dst without clobbering what's there.
	prefix := []Sample{{At: 0, Value: -1}}
	both := r.Snapshot(prefix)
	if len(both) != 5 || both[0].Value != -1 {
		t.Errorf("snapshot with prefix = %+v", both)
	}
}

// TestRingConcurrentReadersAndWriter is the -race exercise for the
// single-writer/atomic-cursor design: readers snapshot continuously while
// the writer wraps the ring many times; every observed snapshot must be
// internally consistent (timestamps strictly increasing, values matching
// their timestamps).
func TestRingConcurrentReadersAndWriter(t *testing.T) {
	r := NewRing(64)
	const writes = 20000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan string, 8)
	for reader := 0; reader < 4; reader++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []Sample
			for {
				select {
				case <-stop:
					return
				default:
				}
				buf = r.Snapshot(buf[:0])
				for i := 1; i < len(buf); i++ {
					if buf[i].At <= buf[i-1].At {
						errs <- "timestamps not increasing"
						return
					}
				}
				for _, s := range buf {
					// The writer encodes At in the value, so a torn slot
					// (new value, old timestamp) is detectable.
					if s.Value != float64(s.At/time.Minute) {
						errs <- "value does not match timestamp: torn slot"
						return
					}
				}
				if last, ok := r.Last(); ok && last.Value != float64(last.At/time.Minute) {
					errs <- "Last returned a torn slot"
					return
				}
			}
		}()
	}
	for i := 1; i <= writes; i++ {
		r.Append(time.Duration(i)*time.Minute, float64(i))
	}
	close(stop)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

func newTestStore(t *testing.T, capacity int) *Store {
	t.Helper()
	return NewStore([]tenant.ID{1, 2}, time.Minute, capacity)
}

// tightWriters starts four goroutines calling write in a tight loop on a full
// ring, returns once they have wrapped it, and hands back what stops them.
func tightWriters(r *Ring, write func()) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
					write()
				}
			}
		}()
	}
	for r.head.Load() < 2*uint64(r.Capacity()) {
		time.Sleep(time.Millisecond) // every writer is up and the ring has wrapped
	}
	return func() {
		close(done)
		wg.Wait()
	}
}

// TestSnapshotNotStarvedByWriter pins the bounded retry: on a full ring the
// lock-free copy stands only if no sample lands while it runs, so writers
// appending in a tight loop — faster than a month-long window copies — used to
// starve Snapshot (and Last) for as long as they kept going.
func TestSnapshotNotStarvedByWriter(t *testing.T) {
	const capacity = 21600 // the daemon's default: one month of 2-minute slots
	r := NewRing(capacity)
	for i := 1; i <= capacity; i++ {
		r.Append(time.Duration(i), float64(i))
	}
	// What an unthrottled ingest does: one interval after the latest sample,
	// whatever that is by now.
	defer tightWriters(r, func() { r.appendAfter(0, 1, 1) })()

	done := make(chan string, 1)
	go func() {
		var win []Sample
		for i := 0; i < 200; i++ {
			win = r.Snapshot(win[:0])
			if len(win) != capacity {
				done <- fmt.Sprintf("window holds %d samples, want %d", len(win), capacity)
				return
			}
			for j := 1; j < len(win); j++ {
				if win[j].At != win[j-1].At+1 {
					done <- fmt.Sprintf("window torn at %d: %+v after %+v", j, win[j], win[j-1])
					return
				}
			}
			if last, ok := r.Last(); !ok || last.At < win[len(win)-1].At {
				done <- fmt.Sprintf("Last() = %+v, older than the window's newest %+v", last, win[len(win)-1])
				return
			}
		}
		done <- ""
	}()
	select {
	case problem := <-done:
		if problem != "" {
			t.Fatal(problem)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("Snapshot starved by tight-loop writers")
	}
}

// TestValuesUnderRacingWriter pins the value-only window read to the same
// seqlock as Snapshot: against tight-loop writers on a full month-long ring it
// returns within a deadline (the lockFreeAttempts fallback), and every window
// it returns is exactly Capacity() consecutive samples — each value is its
// sample's sequence number, so a value from an overwritten slot, a hole or a
// misplaced wrap-around shows. With the writers held off it equals Snapshot.
func TestValuesUnderRacingWriter(t *testing.T) {
	const capacity = 21600
	r := NewRing(capacity)
	appendNext := func() {
		r.wmu.Lock()
		n := r.head.Load() + 1
		r.appendLocked(time.Duration(n), float64(n))
		r.wmu.Unlock()
	}
	for i := 0; i < capacity; i++ {
		appendNext()
	}
	defer tightWriters(r, appendNext)()

	done := make(chan string, 1)
	go func() {
		var win []float64
		for i := 0; i < 200; i++ {
			win = r.Values(win[:0])
			if len(win) != capacity {
				done <- fmt.Sprintf("window holds %d values, want %d", len(win), capacity)
				return
			}
			for j := 1; j < len(win); j++ {
				if win[j] != win[j-1]+1 {
					done <- fmt.Sprintf("window torn at %d: %v after %v", j, win[j], win[j-1])
					return
				}
			}
			if newest := float64(r.head.Load()); win[len(win)-1] > newest {
				done <- fmt.Sprintf("window ends at %v, past the published cursor %v", win[len(win)-1], newest)
				return
			}
		}
		r.wmu.Lock()
		defer r.wmu.Unlock()
		snap, win := r.Snapshot(nil), r.Values(win[:0])
		if len(snap) != capacity || len(win) != capacity {
			done <- fmt.Sprintf("quiesced: %d samples, %d values, want %d of each", len(snap), len(win), capacity)
			return
		}
		for j := range snap {
			if snap[j].Value != win[j] {
				done <- fmt.Sprintf("quiesced: value %d is %v, Snapshot has %v", j, win[j], snap[j].Value)
				return
			}
		}
		done <- ""
	}()
	select {
	case problem := <-done:
		if problem != "" {
			t.Fatal(problem)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("Values starved by tight-loop writers")
	}
}

// TestValuesAppendsWithoutAllocating pins what the warm refresh relies on: a
// destination with room is filled in place, after whatever it already holds.
func TestValuesAppendsWithoutAllocating(t *testing.T) {
	r := NewRing(4)
	for i := 1; i <= 6; i++ { // wraps: retains 3, 4, 5, 6
		r.Append(time.Duration(i)*time.Minute, float64(i))
	}
	buf := make([]float64, 1, 8)
	buf[0] = -1
	got := r.Values(buf)
	if want := []float64{-1, 3, 4, 5, 6}; !slices.Equal(got, want) {
		t.Fatalf("Values = %v, want %v", got, want)
	}
	if &got[0] != &buf[0] {
		t.Error("Values moved a destination that had room")
	}
	if n := testing.AllocsPerRun(100, func() { r.Values(buf[:0]) }); n != 0 {
		t.Errorf("Values into a sufficient buffer allocates %v objects, want 0", n)
	}
}

func TestStoreBootstrapAndSeries(t *testing.T) {
	st := newTestStore(t, 5)
	series := timeseries.New(time.Minute, []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7})
	if err := st.Bootstrap(1, series, 7*time.Minute); err != nil {
		t.Fatal(err)
	}
	// Capacity 5 < series length 7: only the trailing 5 samples are kept.
	got := st.SeriesFor(1)
	if got == nil || got.Len() != 5 {
		t.Fatalf("SeriesFor = %v", got)
	}
	wantVals := []float64{0.3, 0.4, 0.5, 0.6, 0.7}
	for i, v := range got.Values {
		if v != wantVals[i] {
			t.Errorf("value %d = %v, want %v", i, v, wantVals[i])
		}
	}
	if got.Interval != time.Minute {
		t.Errorf("interval = %v, want 1m", got.Interval)
	}
	if h := st.Horizon(); h != 7*time.Minute {
		t.Errorf("horizon = %v, want 7m", h)
	}
	if _, ok := st.LastIngestAt(); ok {
		t.Error("bootstrap counted as live ingest")
	}
	if st.SeriesFor(2) != nil {
		t.Error("empty ring should yield a nil series")
	}
	if st.SeriesFor(99) != nil {
		t.Error("unknown tenant should yield a nil series")
	}
	if err := st.Bootstrap(99, series, 0); err == nil {
		t.Error("bootstrap of unknown tenant did not fail")
	}
}

// TestValuesWhileBootstrapping copies a ring's window, lock-free, while
// Bootstrap fills it with one cursor publication per run of free slots. Values
// are sample sequence numbers, so every window must be consecutive integers.
// Where the series fits beside what the ring already holds, the run is the
// whole series and a reader sees the window before it or after it, never part
// of it; on a full ring the run is the one spare slot, and windows slide a
// sample at a time as they do under Append.
func TestValuesWhileBootstrapping(t *testing.T) {
	const capacity = 21600
	for _, tc := range []struct {
		name      string
		held, add int // samples in the ring before, and in the bootstrap series
		oneRun    bool
	}{
		{"empty ring", 0, capacity, true},
		{"ring with room", capacity / 3, capacity - capacity/3, true},
		{"full ring", capacity, capacity, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			series := timeseries.New(time.Minute, make([]float64, tc.add))
			for i := range series.Values {
				series.Values[i] = float64(tc.held + i + 1)
			}
			final := min(capacity, tc.held+tc.add)
			for round := 0; round < 10; round++ {
				st := newTestStore(t, capacity)
				r := st.Ring(1)
				for i := 1; i <= tc.held; i++ {
					r.Append(time.Duration(i)*time.Minute, float64(i))
				}
				reading, filled := make(chan struct{}), make(chan struct{})
				var wg sync.WaitGroup
				wg.Add(1)
				go func() {
					defer wg.Done()
					var win []float64
					for first := true; ; first = false {
						win = r.Values(win[:0])
						if tc.oneRun && len(win) != tc.held && len(win) != final {
							t.Errorf("window holds %d values: neither the %d before nor the %d after", len(win), tc.held, final)
							return
						}
						for j := 1; j < len(win); j++ {
							if win[j] != win[j-1]+1 {
								t.Errorf("window torn at %d: %v after %v", j, win[j], win[j-1])
								return
							}
						}
						if first {
							close(reading)
						}
						select {
						case <-filled:
							return
						default:
						}
					}
				}()
				<-reading
				if err := st.Bootstrap(1, series, time.Duration(tc.held+tc.add)*time.Minute); err != nil {
					t.Fatal(err)
				}
				close(filled)
				wg.Wait()
				win := r.Values(nil)
				if len(win) != final || win[0] != float64(tc.held+tc.add-final+1) || win[final-1] != float64(tc.held+tc.add) {
					t.Fatalf("after bootstrap: %d values, %v..%v", len(win), win[0], win[len(win)-1])
				}
				if last, _ := r.Last(); last.At != time.Duration(tc.held+tc.add)*time.Minute {
					t.Fatalf("newest sample at %v, want %v", last.At, time.Duration(tc.held+tc.add)*time.Minute)
				}
			}
		})
	}
}

func TestStoreIngest(t *testing.T) {
	st := newTestStore(t, 8)
	at, err := st.Ingest(1, 10*time.Minute, 0.5)
	if err != nil || at != 10*time.Minute {
		t.Fatalf("Ingest = %v, %v", at, err)
	}
	// Auto-timestamp: one interval after the latest sample.
	at, err = st.Ingest(1, 0, 0.6)
	if err != nil || at != 11*time.Minute {
		t.Fatalf("auto-at Ingest = %v, %v (want 11m)", at, err)
	}
	// First sample with auto-timestamp starts the clock at one interval.
	at, err = st.Ingest(2, 0, 0.7)
	if err != nil || at != time.Minute {
		t.Fatalf("first auto-at = %v, %v (want 1m)", at, err)
	}
	// Backdated or duplicate offsets are rejected: rings are strictly
	// time-ordered and the newest sample is what the live usage view serves.
	if _, err := st.Ingest(1, 5*time.Minute, 0.9); err == nil {
		t.Error("backdated sample accepted")
	}
	if _, err := st.Ingest(1, 11*time.Minute, 0.9); err == nil {
		t.Error("duplicate-offset sample accepted")
	}
	// Values are clamped, NaN rejected, unknown tenants rejected.
	if _, err := st.Ingest(1, 0, math.NaN()); err == nil {
		t.Error("NaN accepted")
	}
	if _, err := st.Ingest(42, 0, 0.5); err == nil {
		t.Error("unknown tenant accepted")
	}
	st.Ingest(1, 0, 1.7)
	if v := st.LastValue(1, -1); v != 1 {
		t.Errorf("clamped value = %v, want 1", v)
	}
	if _, ok := st.LastIngestAt(); !ok {
		t.Error("live ingest not recorded")
	}
	if st.TotalSamples() != 4 {
		t.Errorf("total = %d, want 4", st.TotalSamples())
	}
	if h := st.Horizon(); h != 12*time.Minute {
		t.Errorf("horizon = %v, want 12m", h)
	}
}

func TestStoreUtilizationAt(t *testing.T) {
	st := newTestStore(t, 8)
	st.Ingest(1, 2*time.Minute, 0.2)
	st.Ingest(1, 4*time.Minute, 0.4)
	st.Ingest(1, 6*time.Minute, 0.6)
	cases := []struct {
		at   time.Duration
		want float64
	}{
		{7 * time.Minute, 0.6}, // past the horizon: latest
		{6 * time.Minute, 0.6},
		{5 * time.Minute, 0.4}, // step function: latest at-or-before
		{3 * time.Minute, 0.2},
		{1 * time.Minute, 0.2}, // before the window: oldest retained
	}
	for _, c := range cases {
		if got := st.UtilizationAt(1, c.at); got != c.want {
			t.Errorf("UtilizationAt(%v) = %v, want %v", c.at, got, c.want)
		}
	}
	if got := st.UtilizationAt(2, time.Minute); got != 0 {
		t.Errorf("empty ring UtilizationAt = %v, want 0", got)
	}
	if got := st.UtilizationAt(99, time.Minute); got != 0 {
		t.Errorf("unknown tenant UtilizationAt = %v, want 0", got)
	}
	if got := st.LastValue(2, 0.123); got != 0.123 {
		t.Errorf("LastValue fallback = %v, want 0.123", got)
	}
}

func TestEvictStaleReclaimsAndRegrows(t *testing.T) {
	st := newTestStore(t, 8)
	series := timeseries.New(time.Minute, []float64{0.1, 0.2, 0.3, 0.4, 0.5})
	if err := st.Bootstrap(1, series, 5*time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := st.Bootstrap(2, series, 5*time.Minute); err != nil {
		t.Fatal(err)
	}
	// Nothing is stale yet (bootstrap counts as activity), and a disabled
	// window is a no-op.
	if n := st.EvictStale(time.Hour, time.Now()); n != 0 {
		t.Fatalf("evicted %d fresh rings", n)
	}
	if n := st.EvictStale(0, time.Now().Add(1000*time.Hour)); n != 0 {
		t.Fatalf("disabled eviction reclaimed %d rings", n)
	}

	st2 := newTestStore(t, 8)
	if err := st2.Bootstrap(1, series, 5*time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := st2.Bootstrap(2, series, 5*time.Minute); err != nil {
		t.Fatal(err)
	}
	// Tenant 2's ring is forced stale by a zero-ish cutoff trick: evict with
	// a window so small everything is stale, after touching tenant 1 last.
	time.Sleep(2 * time.Millisecond)
	if _, err := st2.Ingest(1, 0, 0.9); err != nil {
		t.Fatal(err)
	}
	if n := st2.EvictStale(time.Millisecond, time.Now()); n != 1 {
		t.Fatalf("evicted %d rings, want 1 (only the untouched tenant)", n)
	}
	if s := st2.SeriesFor(2); s != nil {
		t.Fatalf("evicted tenant still has a series: %v", s.Values)
	}
	if s := st2.SeriesFor(1); s == nil || s.Len() == 0 {
		t.Fatal("fresh tenant lost its series")
	}
	// An evicted ring shrinks to a placeholder...
	if c := st2.Ring(2).Capacity(); c != 1 {
		t.Fatalf("evicted ring capacity = %d, want 1", c)
	}
	// ...and regrows to full capacity when the tenant reports again.
	if _, err := st2.Ingest(2, 0, 0.5); err != nil {
		t.Fatal(err)
	}
	if c := st2.Ring(2).Capacity(); c != 8 {
		t.Fatalf("regrown ring capacity = %d, want 8", c)
	}
	if s := st2.SeriesFor(2); s == nil || s.Len() != 1 || s.Values[0] != 0.5 {
		t.Fatalf("regrown tenant series = %+v, want [0.5]", s)
	}
	// Eviction of an already-empty ring is a no-op (no double counting).
	before := st2.Evictions()
	st2.EvictStale(time.Nanosecond, time.Now().Add(time.Hour))
	if got := st2.Evictions(); got != before+2 {
		t.Fatalf("evictions = %d, want %d (both live rings, empty one skipped)", got, before+2)
	}
}
