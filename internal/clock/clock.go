// Package clock is the time a harvestd node and a harvestrouter decide by:
// lease expiry, back-offs, staleness and the pacing of background jobs. In
// production it is the wall clock; a fleet test substitutes a stepped one
// (internal/fleettest). Reads that only measure (spans, histograms, socket
// deadlines) stay on the wall clock.
package clock

import "time"

// Clock tells the time and makes the waiters background jobs sleep on.
type Clock interface {
	Now() time.Time
	// Waiter makes the one waiter a job reuses between its runs; name says
	// whose it is ("node job").
	Waiter(name string) Waiter
}

// Waiter is one job's sleep between its runs.
type Waiter interface {
	// Wait returns once the clock reaches deadline, wake holds a token (Wait
	// may take it), or done is closed.
	Wait(deadline time.Time, wake <-chan struct{}, done <-chan struct{})
	// Stop retires the waiter: its job has ended.
	Stop()
}

// Or is c, or the wall clock when c is nil.
func Or(c Clock) Clock {
	if c == nil {
		return wall{}
	}
	return c
}

type wall struct{}

func (wall) Now() time.Time { return time.Now() }

func (wall) Waiter(string) Waiter {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return wallWaiter{t}
}

// wallWaiter is one timer, reset for every wait: a wait allocates nothing.
type wallWaiter struct{ t *time.Timer }

func (w wallWaiter) Wait(deadline time.Time, wake, done <-chan struct{}) {
	w.t.Reset(time.Until(deadline))
	defer w.t.Stop()
	select {
	case <-w.t.C:
	case <-wake:
	case <-done:
	}
}

func (w wallWaiter) Stop() { w.t.Stop() }
