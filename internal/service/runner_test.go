package service

import (
	"context"
	"testing"
	"time"

	"harvest/internal/clock"
)

// TestRunnerTickAllocs: on the wall clock, a job's run costs the runner no
// object in steady state, whether its period or a wake brings it. The fleet
// benchmark's announce and ship jobs and every primary's repair job tick
// every 250 ms, so an object a tick would show in bytes per request. Under
// the race detector, which allocates, the ticks run without the count.
func TestRunnerTickAllocs(t *testing.T) {
	r := newRunner(clock.Or(nil), "n", func() []job { return nil })
	defer r.close(func() {})
	ran := make(chan struct{})
	run := func(ctx context.Context) time.Duration {
		select {
		case ran <- struct{}{}:
		case <-ctx.Done():
		}
		return 0
	}
	for _, c := range []struct {
		job  job
		tick func()
	}{
		{job{name: "periodic", every: time.Millisecond, run: run}, func() { <-ran }},
		{job{name: "woken", every: time.Hour, now: true, wakes: true, run: run}, func() { r.wake(); <-ran }},
	} {
		stop := r.spawn(c.job)
		<-ran // the first run: a job takes wakes from before it
		if avg := testing.AllocsPerRun(100, c.tick); avg != 0 && !raceEnabled {
			t.Errorf("a %s tick allocates %v objects", c.job.name, avg)
		}
		stop()
	}
}
