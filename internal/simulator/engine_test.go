package simulator

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

func TestScheduleAndRunOrder(t *testing.T) {
	e := New()
	var order []int
	_ = e.Schedule(3*time.Second, func(time.Duration) { order = append(order, 3) })
	_ = e.Schedule(1*time.Second, func(time.Duration) { order = append(order, 1) })
	_ = e.Schedule(2*time.Second, func(time.Duration) { order = append(order, 2) })
	n := e.Run(10 * time.Second)
	if n != 3 {
		t.Fatalf("executed %d events, want 3", n)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if e.Now() != 10*time.Second {
		t.Fatalf("clock should end at the horizon, got %v", e.Now())
	}
}

func TestEqualTimeEventsRunInScheduleOrder(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		_ = e.Schedule(time.Second, func(time.Duration) { order = append(order, i) })
	}
	e.RunAll()
	for i, v := range order {
		if v != i {
			t.Fatalf("equal-time events out of order: %v", order)
		}
	}
}

func TestSchedulePastEvent(t *testing.T) {
	e := New()
	_ = e.Schedule(5*time.Second, func(time.Duration) {})
	e.RunAll()
	if err := e.Schedule(time.Second, func(time.Duration) {}); err != ErrPastEvent {
		t.Fatalf("expected ErrPastEvent, got %v", err)
	}
}

func TestScheduleAfterClampsNegative(t *testing.T) {
	e := New()
	ran := false
	e.ScheduleAfter(-time.Second, func(now time.Duration) {
		ran = true
		if now != 0 {
			t.Errorf("negative delay should run now, got %v", now)
		}
	})
	e.RunAll()
	if !ran {
		t.Fatalf("event did not run")
	}
}

func TestRunStopsAtHorizon(t *testing.T) {
	e := New()
	ran := 0
	_ = e.Schedule(time.Second, func(time.Duration) { ran++ })
	_ = e.Schedule(time.Hour, func(time.Duration) { ran++ })
	n := e.Run(time.Minute)
	if n != 1 || ran != 1 {
		t.Fatalf("expected only the first event to run, got n=%d ran=%d", n, ran)
	}
	if e.Pending() != 1 {
		t.Fatalf("one event should remain pending, got %d", e.Pending())
	}
	if e.Now() != time.Minute {
		t.Fatalf("clock should stop at the horizon, got %v", e.Now())
	}
}

func TestStepAdvancesClock(t *testing.T) {
	e := New()
	_ = e.Schedule(7*time.Second, func(time.Duration) {})
	if !e.Step() {
		t.Fatalf("expected an event to run")
	}
	if e.Now() != 7*time.Second {
		t.Fatalf("clock = %v, want 7s", e.Now())
	}
	if e.Step() {
		t.Fatalf("no events should remain")
	}
}

func TestEventsCanScheduleEvents(t *testing.T) {
	e := New()
	var times []time.Duration
	_ = e.Schedule(time.Second, func(now time.Duration) {
		times = append(times, now)
		e.ScheduleAfter(2*time.Second, func(now time.Duration) {
			times = append(times, now)
		})
	})
	e.Run(time.Minute)
	if len(times) != 2 || times[0] != time.Second || times[1] != 3*time.Second {
		t.Fatalf("times = %v", times)
	}
	if e.Processed() != 2 {
		t.Fatalf("processed = %d, want 2", e.Processed())
	}
}

func TestEvery(t *testing.T) {
	e := New()
	count := 0
	e.Every(time.Minute, 10*time.Minute, func(time.Duration) bool {
		count++
		return true
	})
	e.Run(10 * time.Minute)
	if count != 10 {
		t.Fatalf("periodic event ran %d times, want 10", count)
	}
}

func TestEveryStopsWhenPredicateFalse(t *testing.T) {
	e := New()
	count := 0
	e.Every(time.Minute, time.Hour, func(time.Duration) bool {
		count++
		return count < 3
	})
	e.Run(time.Hour)
	if count != 3 {
		t.Fatalf("periodic event ran %d times, want 3", count)
	}
}

func TestEveryInvalidPeriodOrHorizon(t *testing.T) {
	e := New()
	e.Every(0, time.Hour, func(time.Duration) bool { t.Fatal("should not run"); return true })
	e.Every(time.Hour, time.Minute, func(time.Duration) bool { t.Fatal("should not run"); return true })
	e.RunAll()
}

func TestStatsCounters(t *testing.T) {
	e := New()
	for i := 0; i < 100; i++ {
		_ = e.Schedule(time.Duration(100-i)*time.Second, func(time.Duration) {})
	}
	if got := e.Stats().MaxPending; got != 100 {
		t.Fatalf("MaxPending = %d, want 100", got)
	}
	e.RunAll()
	st := e.Stats()
	if st.Scheduled != 100 || st.Executed != 100 {
		t.Fatalf("Scheduled/Executed = %d/%d, want 100/100", st.Scheduled, st.Executed)
	}
	if st.HeapGrowths == 0 {
		t.Fatalf("growing from an empty queue must reallocate at least once")
	}
	if st.MaxPending != 100 {
		t.Fatalf("MaxPending = %d after drain, want 100", st.MaxPending)
	}
}

// TestSteadyStateDoesNotGrowHeap is the allocation contract: once the queue's
// high-water mark is reached, scheduling and draining events reuses the
// backing array and performs no further heap growth.
func TestSteadyStateDoesNotGrowHeap(t *testing.T) {
	e := New()
	for round := 0; round < 3; round++ {
		for i := 0; i < 64; i++ {
			e.ScheduleAfter(time.Duration(i)*time.Millisecond, func(time.Duration) {})
		}
		e.RunAll()
	}
	grown := e.Stats().HeapGrowths
	for round := 0; round < 100; round++ {
		for i := 0; i < 64; i++ {
			e.ScheduleAfter(time.Duration(i%7)*time.Millisecond, func(time.Duration) {})
		}
		e.RunAll()
	}
	if got := e.Stats().HeapGrowths; got != grown {
		t.Fatalf("steady state grew the heap: %d -> %d reallocations", grown, got)
	}
}

// TestHeapOrderRandomized cross-checks the 4-ary heap against a reference
// sort over many randomized schedules, including duplicate timestamps.
func TestHeapOrderRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		e := New()
		n := 1 + rng.Intn(200)
		type key struct {
			at  time.Duration
			seq int
		}
		var want []key
		var got []key
		for i := 0; i < n; i++ {
			at := time.Duration(rng.Intn(50)) * time.Second
			k := key{at: at, seq: i}
			want = append(want, k)
			_ = e.Schedule(at, func(now time.Duration) {
				got = append(got, k)
			})
		}
		sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
		e.RunAll()
		if len(got) != len(want) {
			t.Fatalf("trial %d: ran %d events, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: event %d = %+v, want %+v", trial, i, got[i], want[i])
			}
		}
	}
}

func noopEvent(time.Duration) {}

// BenchmarkEngineScheduleRun measures the steady-state cost of scheduling and
// draining a batch of events on a long-lived engine, the pattern of container
// completions inside yarnsim.
func BenchmarkEngineScheduleRun(b *testing.B) {
	e := New()
	const batch = 512
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < batch; j++ {
			// Interleaved delays exercise both sift directions of the heap.
			e.ScheduleAfter(time.Duration(j%97)*time.Millisecond, noopEvent)
		}
		e.RunAll()
	}
	if e.Pending() != 0 {
		b.Fatalf("events left pending: %d", e.Pending())
	}
}

// BenchmarkEngineEvery measures a periodic heartbeat tick, the engine pattern
// behind every NM/RM heartbeat in the scheduling simulations.
func BenchmarkEngineEvery(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := New()
		ticks := 0
		e.Every(time.Second, 1024*time.Second, func(time.Duration) bool {
			ticks++
			return true
		})
		e.Run(1024 * time.Second)
		if ticks != 1024 {
			b.Fatalf("ran %d ticks, want 1024", ticks)
		}
	}
}
