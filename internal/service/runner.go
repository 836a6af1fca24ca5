package service

import (
	"context"
	"sync"
	"time"

	"harvest/internal/clock"
)

// runner holds a node's background work, each kind declared once as a job
// that runs on a goroutine of its own and sleeps on the node's clock between
// runs, so a slow refresh or persist never delays a sweep. A job belongs to
// the node's role (refresh per shard, sweep and repair on a primary; follow
// on a follower) or to an owner for the owner's life (ship per follower
// connection, announce per router).
type runner struct {
	clock    clock.Clock
	node     string       // names the node's waiters on a shared clock
	roleJobs func() []job // the jobs of the role the node holds now

	// mu orders start, restart, spawn and close, so no job starts once close
	// waits. restart holds it while the old role's jobs return, so a role job
	// must call none of them; wake it may.
	mu       sync.Mutex
	started  bool
	ctx      context.Context // ends at close; every job's derives from it
	cancel   context.CancelFunc
	stopRole []func()       // end the running role's jobs and wait for them
	all      sync.WaitGroup // every job on a goroutine of the runner's

	wakeMu sync.Mutex
	wakes  map[chan struct{}]bool // one token slot per running job declared with wakes
}

// job is one kind of background work. run is called every period, also at
// the start when now is set and, when wakes is set, at once on wake; the
// periods fall on a grid from the job's start, so run time never drifts them.
// run returns when it wants to run next: 0 on the period, a delay from its
// return, or jobEnds. Its context ends with the job's scope.
type job struct {
	name       string
	every      time.Duration
	now, wakes bool
	run        func(ctx context.Context) time.Duration
}

// jobEnds is what a job's run returns to end the job.
const jobEnds time.Duration = -1

func newRunner(clk clock.Clock, node string, roleJobs func() []job) *runner {
	r := &runner{clock: clk, node: node, roleJobs: roleJobs, wakes: map[chan struct{}]bool{}}
	r.ctx, r.cancel = context.WithCancel(context.Background())
	return r
}

// start starts the jobs of the node's role, once.
func (r *runner) start() { r.startRole(false) }

// restart follows a change of the node's role, or of what it follows: the
// running role's jobs end, and return, before any of the new role's start.
// Before start it does nothing.
func (r *runner) restart() { r.startRole(true) }

func (r *runner) startRole(restart bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.started != restart {
		return
	}
	for _, stop := range r.stopRole {
		stop()
	}
	r.started = true
	r.stopRole = r.stopRole[:0]
	for _, j := range r.roleJobs() {
		r.stopRole = append(r.stopRole, r.goJob(j))
	}
}

// spawn starts an owned job. stop ends it and waits for it; close ends it too.
func (r *runner) spawn(j job) (stop func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.goJob(j)
}

// goJob runs j on a goroutine of its own, unless the runner is closed: Wait
// may have returned. The caller holds r.mu. A job that waits before its first
// run gets its waiter here, so a stepped clock counts it from its start.
func (r *runner) goJob(j job) (stop func()) {
	ctx, cancel := context.WithCancel(r.ctx)
	done := make(chan struct{})
	if r.ctx.Err() != nil {
		close(done)
	} else {
		var w clock.Waiter
		if !j.now {
			w = r.clock.Waiter(r.node + " " + j.name)
		}
		r.all.Add(1)
		go func() {
			defer r.all.Done()
			defer close(done)
			r.run(ctx, j, w)
		}()
	}
	return func() {
		cancel()
		<-done
	}
}

// close ends every job and waits for them. release runs in between: it
// unblocks what a context cannot reach, such as a goroutine in Accept.
func (r *runner) close(release func()) {
	r.mu.Lock()
	r.cancel()
	r.mu.Unlock()
	release()
	r.all.Wait()
}

// wake runs the jobs declared with wakes now, or again as soon as they return.
func (r *runner) wake() {
	r.wakeMu.Lock()
	defer r.wakeMu.Unlock()
	for c := range r.wakes {
		select {
		case c <- struct{}{}:
		default:
		}
	}
}

// run runs j on the calling goroutine until ctx ends or j does: on a
// goroutine of the runner's, or on an owner's that waits for it. w is j's
// waiter, nil until a job due at once first waits.
func (r *runner) run(ctx context.Context, j job, w clock.Waiter) {
	var wake chan struct{}
	if j.wakes {
		wake = make(chan struct{}, 1)
		r.wakeMu.Lock()
		r.wakes[wake] = true
		r.wakeMu.Unlock()
		defer func() {
			r.wakeMu.Lock()
			delete(r.wakes, wake)
			r.wakeMu.Unlock()
		}()
	}
	defer func() {
		if w != nil {
			w.Stop()
		}
	}()
	due := r.clock.Now().Add(j.every)
	for run := j.now; ; run = true {
		if run {
			onTime := !r.clock.Now().Before(due) // not a wake's run
			after := j.run(ctx)
			if after < 0 || ctx.Err() != nil {
				return
			}
			switch now := r.clock.Now(); {
			case after > 0:
				due = now.Add(after)
			case onTime:
				// The next period, or, as a ticker does, the last one missed.
				due = due.Add(j.every)
				if late := now.Sub(due); late >= 0 {
					due = due.Add(late / j.every * j.every)
				}
			}
		}
		if w == nil {
			w = r.clock.Waiter(r.node + " " + j.name)
		}
		w.Wait(due, wake, ctx.Done())
		if ctx.Err() != nil {
			return
		}
	}
}
