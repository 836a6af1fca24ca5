package loadgen

import (
	"bufio"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"harvest/internal/obs"
)

// stats accumulates one connection's results; merged after the run. Only the
// goroutine that reads replies writes it, except transport, which the
// open-loop writer bumps too (write failures) and so is atomic.
type stats struct {
	requests  [numOpKinds]uint64
	errors    [numOpKinds]uint64
	transport atomic.Uint64 // connection-level failures
	latency   obs.Histogram
	trace     [16]byte // trace id of the newest traced reply; zero first byte when none
	backends  backendTally
}

// backendTally counts replies by the replica the router says served them. A
// run sees a handful of replicas at most, so a linear scan over byte-compared
// names beats a map: the hot path allocates only on a backend's first reply.
type backendTally struct {
	names  []string
	counts []uint64
}

func (t *backendTally) bump(name []byte) {
	if len(name) == 0 {
		return
	}
	for i, n := range t.names {
		if string(name) == n { // comparison only; no allocation
			t.counts[i]++
			return
		}
	}
	t.names = append(t.names, string(name))
	t.counts = append(t.counts, 1)
}

// pending is one request in flight, in send order. due is the instant its
// latency is measured from: the enqueue time in the closed loop, the scheduled
// time in the open loop.
type pending struct {
	kind opKind
	dc   int
	due  time.Time
}

const (
	// maxHeldLeases caps the per-DC held pool; a lease arriving at the cap is
	// forgotten and left to the server's TTL sweep (which the /metrics books
	// count as expired, keeping the invariant intact).
	maxHeldLeases = 1 << 16
	// maxServerPool caps the per-DC server ids kept for server-class lookups.
	maxServerPool = 1024
	// openBatchLimit bounds how many overdue requests the paced writer sends
	// in one write: a generator that fell behind catches up in bounded bursts.
	openBatchLimit = 128
	// openQueueDepth is how many replies an open-loop connection may be owed
	// before its writer waits for the reader. Past it requests go out late, and
	// because latency runs from the due time the lateness is charged, not
	// hidden; the bound only keeps a long fast schedule from costing memory up
	// front.
	openQueueDepth = 1 << 16
)

// conn drives one connection. In the closed loop one goroutine writes and
// reads; in the open loop a paced writer and a reader share only the pools
// (under mu) and the pending queue.
type conn struct {
	addr  string
	d     dialect
	dcs   []string
	st    *stream
	depth int
	// stats is where replies are accounted: the run's report during the
	// measured phase, a scratch value during the drain.
	stats *stats

	nc  net.Conn
	br  *bufio.Reader
	out []byte
	rep reply

	mu      sync.Mutex
	held    [][]uint64 // per DC: outstanding lease ids, oldest first (select → hold → release)
	servers [][]int64  // per DC: server ids to look up, seeded by discovery and fed by place replies
}

// dial opens the connection with a hard deadline: a stalled server fails the
// run instead of hanging it (and the CI job around it) forever.
func (c *conn) dial(deadline time.Time) error {
	nc, err := net.DialTimeout("tcp", c.addr, 5*time.Second)
	if err != nil {
		c.stats.transport.Add(1)
		return err
	}
	nc.SetDeadline(deadline)
	c.nc, c.br, c.out = nc, bufio.NewReaderSize(nc, 64<<10), c.out[:0]
	return nil
}

// resolve turns a generated request into a concrete one against the pools as
// they are right now. A release takes the oldest held lease (FIFO, so holds
// last roughly equally long at a steady mix); a renew names the newest, the
// one least likely to have a release already racing it through the pipeline.
// A release or renew with nothing held, or a lookup with no server known,
// degrades to a classes query so the schedule never stalls.
func (c *conn) resolve(r request) request {
	c.mu.Lock()
	defer c.mu.Unlock()
	held, servers := c.held[r.DC], c.servers[r.DC]
	switch {
	case r.Kind == opRelease && len(held) > 0:
		r.Arg, c.held[r.DC] = held[0], held[1:]
	case r.Kind == opRenew && len(held) > 0:
		r.Arg = held[len(held)-1]
	case r.Kind == opServer && len(servers) > 0:
		r.Arg = uint64(servers[int(r.Pick)%len(servers)])
	case r.Kind == opRelease || r.Kind == opRenew || r.Kind == opServer:
		r.Kind = opClasses
	}
	return r
}

// enqueue appends r to the output buffer in the connection's dialect and
// returns its pending record.
func (c *conn) enqueue(r request, due time.Time) pending {
	c.out = c.d.appendRequest(c.out, c.dcs[r.DC], r)
	return pending{kind: r.Kind, dc: r.DC, due: due}
}

func (c *conn) flush() error {
	_, err := c.nc.Write(c.out)
	c.out = c.out[:0]
	return err
}

// readReply reads the reply to p and accounts it: the op's count and error,
// the latency from p.due, the lease a select reserved (held for a later
// release), the servers a place named (kept for later lookups), and the trace
// and backend the tier stamped on it. Every reply of the closed loop, the open
// loop and the drain passes through here and nowhere else. An error means the
// connection is unusable.
func (c *conn) readReply(p pending) error {
	rep := &c.rep
	if err := c.d.readReply(c.br, rep); err != nil {
		c.stats.transport.Add(1)
		return err
	}
	st := c.stats
	st.requests[p.kind]++
	st.latency.Observe(time.Since(p.due))
	if rep.trace[0] != 0 {
		st.trace = rep.trace
	}
	st.backends.bump(rep.backend)
	switch {
	case rep.failed:
		st.errors[p.kind]++
	case p.kind == opSelect && rep.lease != 0: // 0: unsatisfiable, nothing reserved
		c.mu.Lock()
		if len(c.held[p.dc]) < maxHeldLeases {
			c.held[p.dc] = append(c.held[p.dc], rep.lease)
		}
		c.mu.Unlock()
	case p.kind == opPlace:
		c.mu.Lock()
		if len(c.servers[p.dc]) < maxServerPool {
			c.servers[p.dc] = append(c.servers[p.dc], rep.servers...)
		}
		c.mu.Unlock()
	}
	return nil
}

// roundTrip flushes a pipelined batch and reads every reply to it: one syscall
// pair per batch instead of per request is what buys the throughput.
func (c *conn) roundTrip(batch []pending) error {
	if err := c.flush(); err != nil {
		c.stats.transport.Add(1)
		return err
	}
	for _, p := range batch {
		if err := c.readReply(p); err != nil {
			return err
		}
	}
	return nil
}

// runClosed keeps a window of depth requests outstanding until the deadline:
// fill, flush once, read every reply, repeat. This measures capacity. A broken
// connection is redialled; the requests it had in flight are lost.
func (c *conn) runClosed(deadline time.Time) {
	hard := deadline.Add(10 * time.Second)
	if c.dial(hard) != nil {
		return
	}
	defer func() { c.nc.Close() }()
	batch := make([]pending, 0, c.depth)
	for time.Now().Before(deadline) {
		batch = batch[:0]
		for len(batch) < c.depth {
			batch = append(batch, c.enqueue(c.resolve(c.st.next()), time.Now()))
		}
		if c.roundTrip(batch) != nil {
			c.nc.Close()
			if c.dial(hard) != nil {
				time.Sleep(10 * time.Millisecond) // give the server a beat before retrying
			}
		}
	}
}

// runOpen sends on a schedule: request i is due at first + i·interval whether
// or not earlier replies have arrived, and its latency runs from that due
// time, not from the send — so a lagging server (or generator) shows up as
// queueing delay in the percentiles instead of silently stretching the
// schedule (coordinated omission). The writer sleeps until the next due time
// and sends everything that is due without waiting for replies; a reader
// goroutine takes those in order. Unlike the closed loop, a broken connection fails the rest of the
// schedule loudly (each lost request a transport error) rather than
// reconnecting: a latency measurement with a hole in it should look like one.
func (c *conn) runOpen(first, deadline time.Time, interval time.Duration) {
	if c.dial(deadline.Add(10*time.Second)) != nil {
		return
	}
	defer c.nc.Close()
	queue := make(chan pending, openQueueDepth)
	done := make(chan struct{})
	go func() {
		defer close(done)
		var err error
		for p := range queue {
			if err != nil {
				c.stats.transport.Add(1)
			} else {
				err = c.readReply(p)
			}
		}
	}()
	for due := first; due.Before(deadline); {
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		now := time.Now()
		for sent := 0; sent < openBatchLimit && due.Before(deadline) && !due.After(now); sent++ {
			queue <- c.enqueue(c.resolve(c.st.next()), due)
			due = due.Add(interval)
		}
		if err := c.flush(); err != nil {
			c.stats.transport.Add(1)
			break
		}
	}
	close(queue)
	<-done
}

// drain releases every lease the run still holds over a fresh pipelined
// connection, so the server's books can be read at outstanding == 0. It is
// bookkeeping, not load: callers point c.stats away from the run's report
// first. Leases it cannot release (the server is gone) age out by TTL.
func (c *conn) drain() {
	held := 0
	for _, h := range c.held {
		held += len(h)
	}
	if held == 0 || c.dial(time.Now().Add(20*time.Second)) != nil {
		return
	}
	defer c.nc.Close()
	batch := make([]pending, 0, c.depth)
	for dc := range c.held {
		for _, lease := range c.held[dc] {
			batch = append(batch, c.enqueue(request{Kind: opRelease, DC: dc, Arg: lease}, time.Now()))
			if len(batch) == c.depth {
				if c.roundTrip(batch) != nil {
					return
				}
				batch = batch[:0]
			}
		}
		c.held[dc] = nil
	}
	c.roundTrip(batch)
}
