package service

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// runner holds a node's background work, each kind declared once as a job
// that runs on a goroutine of its own, so a slow refresh or persist never
// delays a sweep. A job belongs to the node's role (refresh per shard, sweep
// and repair on a primary; follow on a follower) or to an owner for the
// owner's life (ship per follower connection, announce per router).
type runner struct {
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

	woken atomic.Pointer[chan struct{}] // closed, and replaced, by wake
}

// job is one kind of background work. With a period, run is called on a
// ticker, also at the start when now is set and, when wakes is set, at once
// on wake. Without one, run paces itself and is called again as it returns.
// run's context ends with the job's scope; returning false ends the job.
type job struct {
	every      time.Duration
	now, wakes bool
	run        func(ctx context.Context) bool
}

func newRunner(roleJobs func() []job) *runner {
	r := &runner{roleJobs: roleJobs}
	r.ctx, r.cancel = context.WithCancel(context.Background())
	woken := make(chan struct{})
	r.woken.Store(&woken)
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
// may have returned. The caller holds r.mu.
func (r *runner) goJob(j job) (stop func()) {
	ctx, cancel := context.WithCancel(r.ctx)
	done := make(chan struct{})
	if r.ctx.Err() != nil {
		close(done)
	} else {
		r.all.Add(1)
		go func() {
			defer r.all.Done()
			defer close(done)
			r.run(ctx, j)
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
	next := make(chan struct{})
	close(*r.woken.Swap(&next))
}

// run runs j on the calling goroutine until ctx ends or j does: on a
// goroutine of the runner's, or on an owner's that waits for it.
func (r *runner) run(ctx context.Context, j job) {
	if j.every <= 0 {
		for ctx.Err() == nil && j.run(ctx) {
		}
		return
	}
	ticker := time.NewTicker(j.every)
	defer ticker.Stop()
	for run := j.now; ; run = true {
		var woken <-chan struct{} // taken before the run: a wake during it runs it again
		if j.wakes {
			woken = *r.woken.Load()
		}
		if run && (ctx.Err() != nil || !j.run(ctx)) {
			return
		}
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		case <-woken:
		}
	}
}
