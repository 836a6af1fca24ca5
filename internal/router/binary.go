package router

import (
	"bufio"
	"errors"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"harvest/internal/obs"
	"harvest/internal/wire"
)

// The router's binary data plane. The front end accepts the same
// length-prefixed frame dialect harvestd serves (internal/wire) and relays
// each data-plane request to the shard owning its datacenter, over a
// pipelined connection (binPipe) to the binary_addr the backend advertised in
// its register heartbeat: many frames — from many client connections — are in
// flight on one backend conn at once, each travelling under a router-minted
// relay id and completed by the echoed id when its response frame arrives. No
// decode, no re-encode, no HTTP, and no lock-step round trip per frame. A
// frame for a backend that advertised no binary_addr is answered 503; the
// JSON front is what serves a JSON-only backend.
//
// Client-facing ordering: responses on a client connection go back in
// request order even though relays complete out of order. The dialect's
// pipelining clients (loadgen) reuse one frame id per connection and match
// responses positionally, so per-connection FIFO is part of the contract.
//
// Registration, discovery, and metrics stay on the JSON control plane: the
// binary listener serves data-plane opcodes only.

const (
	// binFrontIdleTimeout mirrors harvestd's binary server: an idle client
	// conn is dropped after this long.
	binFrontIdleTimeout = 2 * time.Minute
	// binPipeIdleMax reaps backend pipes idle this long — well below the
	// backends' 2-minute server-side idle timeout, so the router drops a
	// pipe before the backend does (a send racing the backend's close would
	// read as a spurious transport failure, same reasoning as the HTTP
	// transport's IdleConnTimeout).
	binPipeIdleMax = 30 * time.Second
	// binPipeCount bounds pipelined conns per backend. The backend serves
	// each connection with one goroutine, so parallelism across its cores
	// needs several pipes; beyond a handful the per-conn syscall batching
	// wins flatten out.
	binPipeCount = 4
	// binRelayWindow bounds in-flight relays per client connection: the
	// reader stops pulling frames when this many responses are pending, the
	// writer releases a slot as each response drains.
	binRelayWindow = 64
)

var (
	errPipeClosed = errors.New("binary pipe closed")
	errPipeDesync = errors.New("backend sent a response frame nobody is waiting for")
)

// binPipe is one pipelined connection to a backend's binary listener.
// Senders — one per relayed frame, from any number of client connections —
// append their frame to the pipe's own write buffer under its lock; the single
// writer goroutine swaps the buffer for an empty one and writes it out, so a
// burst of relays costs one write syscall, not one each, and no frame's bytes
// belong to anyone but the pipe. The single reader goroutine completes waiters
// — the client connections' relay slots — by the echoed relay id. Any read
// error, timeout with frames in flight, or unknown id is terminal: the stream
// can no longer be trusted, so every waiter fails and the pipe is removed from
// its backend.
type binPipe struct {
	c       net.Conn
	br      *bufio.Reader
	timeout time.Duration

	mu      sync.Mutex
	waiters map[uint64]*binRelaySlot
	wbuf    []byte // relay frames not yet written; the writer swaps it out

	// closed flips exactly once, in fail. It is read lock-free on the hot
	// paths (getPipe scans every pipe per relayed frame); the waiters map is
	// still guarded by mu, and fail orders the flip before the sweep.
	closed atomic.Bool

	wake chan struct{} // cap 1: wakes the parked writer when wbuf holds a frame
	kick chan struct{} // cap 1: wakes the parked reader when a frame is in flight
	stop chan struct{} // closed on failure: unparks the reader and writer for exit

	inFlight atomic.Int64
	lastUse  atomic.Int64 // unix nanos of the last send or response
}

func newBinPipe(c net.Conn, timeout time.Duration) *binPipe {
	p := &binPipe{
		c:       c,
		br:      bufio.NewReaderSize(c, 64<<10),
		timeout: timeout,
		waiters: make(map[uint64]*binRelaySlot, binRelayWindow),
		wbuf:    make([]byte, 0, 64<<10),
		wake:    make(chan struct{}, 1),
		kick:    make(chan struct{}, 1),
		stop:    make(chan struct{}),
	}
	p.lastUse.Store(time.Now().UnixNano())
	return p
}

func (p *binPipe) dead() bool { return p.closed.Load() }

// send re-frames a request for the backend leg (wire.AppendRelayFrame) into
// the pipe's write buffer and registers slot under relayID, in one critical
// section: a frame is either registered and queued, and then completed exactly
// once — by the reader, or by fail — or refused because the pipe has failed.
func (p *binPipe) send(slot *binRelaySlot, h wire.Header, payload []byte, relayID, traceID uint64) error {
	p.mu.Lock()
	if p.closed.Load() {
		p.mu.Unlock()
		return errPipeClosed
	}
	p.waiters[relayID] = slot
	p.wbuf = wire.AppendRelayFrame(p.wbuf, h, payload, relayID, traceID)
	p.inFlight.Add(1)
	p.mu.Unlock()
	p.lastUse.Store(time.Now().UnixNano())
	select {
	case p.wake <- struct{}{}:
	default:
	}
	select {
	case p.kick <- struct{}{}:
	default:
	}
	return nil
}

// writeLoop is the pipe's single writer: it takes everything senders have
// queued — swapping the write buffer for the one it wrote last — and puts it
// on the wire in one write, so relays arriving together share a syscall. A
// client connection's reader queues its burst one frame at a time, so a wake
// usually means the batch is still forming: the loop yields once before it
// takes the buffer. A write error is terminal: the stream may hold a partial
// frame and nothing sane can follow.
func (p *binPipe) writeLoop() {
	spare := make([]byte, 0, 64<<10)
	for {
		select {
		case <-p.wake:
		case <-p.stop:
			return
		}
		runtime.Gosched()
		p.mu.Lock()
		buf := p.wbuf
		p.wbuf = spare[:0]
		p.mu.Unlock()
		if len(buf) > 0 {
			p.c.SetWriteDeadline(time.Now().Add(p.timeout))
			if _, err := p.c.Write(buf); err != nil {
				p.fail(err)
				return
			}
		}
		spare = buf
	}
}

// readLoop is the pipe's single reader. It parks while nothing is in flight
// (no read deadline ticking against an idle backend), then reads response
// frames under the relay timeout and completes waiters by echoed id.
func (p *binPipe) readLoop(b *backend) {
	defer b.removePipe(p)
	var scratch []byte
	for {
		if p.closed.Load() {
			return
		}
		p.mu.Lock()
		pending := len(p.waiters)
		p.mu.Unlock()
		if pending == 0 {
			select {
			case <-p.kick:
				continue
			case <-p.stop:
				return
			}
		}
		p.c.SetReadDeadline(time.Now().Add(p.timeout))
		h, frame, err := wire.ReadRawFrame(p.br, &scratch, true)
		if err != nil {
			p.fail(err)
			return
		}
		p.mu.Lock()
		slot, ok := p.waiters[h.ID]
		delete(p.waiters, h.ID)
		p.mu.Unlock()
		if !ok {
			p.fail(errPipeDesync)
			return
		}
		p.lastUse.Store(time.Now().UnixNano())
		// The scratch buffer is reused for the next frame; the response moves
		// into the slot's own buffer, which nobody else touches until the slot's
		// connection has written it out.
		slot.frame = append(slot.frame[:0], frame...)
		slot.done <- struct{}{}
		p.inFlight.Add(-1)
	}
}

// fail completes every waiter with err and closes the pipe. Idempotent. The
// closed flip happens before the sweep takes mu, and send checks it under the
// same mu before registering, so no waiter can slip in after the sweep.
func (p *binPipe) fail(err error) {
	if !p.closed.CompareAndSwap(false, true) {
		return
	}
	p.mu.Lock()
	waiters := p.waiters
	p.waiters = nil
	p.mu.Unlock()
	close(p.stop)
	p.c.Close()
	for _, slot := range waiters {
		slot.err = err
		slot.done <- struct{}{}
		p.inFlight.Add(-1)
	}
}

// getPipe returns a live pipe to the backend, dialing one if needed. The
// pipe table is a fixed array of binPipeCount slots:
//
//   - Keyed frames (release/renew, keyed by lease id) always use slot
//     key%binPipeCount. Two frames for the same lease therefore share a pipe,
//     and since each pipe is strictly FIFO and the backend serves a conn
//     sequentially, operations on one lease reach the ledger in the order
//     the client issued them — a release can never overtake the renew it
//     was pipelined behind.
//   - Unkeyed frames take the least-loaded live slot, dialing an empty one
//     when every live pipe is busy.
//
// Idle pipes older than binPipeIdleMax are reaped on the way (their server
// side may be about to close them).
func (b *backend) getPipe(addr string, dialTimeout time.Duration, key uint64, keyed bool) (*binPipe, error) {
	now := time.Now().UnixNano()
	slot := -1
	b.binMu.Lock()
	for i, p := range b.binPipes {
		if p == nil {
			continue
		}
		if p.dead() {
			b.binPipes[i] = nil
			continue
		}
		if p.inFlight.Load() == 0 && now-p.lastUse.Load() > int64(binPipeIdleMax) {
			go p.fail(errPipeClosed)
			b.binPipes[i] = nil
		}
	}
	if keyed {
		slot = int(key % binPipeCount)
		if p := b.binPipes[slot]; p != nil {
			b.binMu.Unlock()
			return p, nil
		}
	} else {
		var best *binPipe
		empty := -1
		for i, p := range b.binPipes {
			if p == nil {
				if empty < 0 {
					empty = i
				}
				continue
			}
			if best == nil || p.inFlight.Load() < best.inFlight.Load() {
				best = p
			}
		}
		if best != nil && (best.inFlight.Load() == 0 || empty < 0) {
			b.binMu.Unlock()
			return best, nil
		}
		slot = empty
	}
	b.binMu.Unlock()
	// The slot needs a pipe. The dial runs unlocked, so a racing relay for
	// the same slot may dial too; the loser's conn is closed and the winner's
	// pipe is used, keeping the slot→pipe mapping single-valued.
	c, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	p := newBinPipe(c, dialTimeout)
	b.binMu.Lock()
	if q := b.binPipes[slot]; q != nil && !q.dead() {
		b.binMu.Unlock()
		p.fail(errPipeClosed) // no loops started yet: just closes the conn
		return q, nil
	}
	b.binPipes[slot] = p
	b.binMu.Unlock()
	go p.readLoop(b)
	go p.writeLoop()
	return p, nil
}

// removePipe clears a dead pipe's slot; called only by the pipe's own
// readLoop on exit.
func (b *backend) removePipe(p *binPipe) {
	b.binMu.Lock()
	for i, q := range b.binPipes {
		if q == p {
			b.binPipes[i] = nil
			break
		}
	}
	b.binMu.Unlock()
}

// closeBinPipes fails every pipe; called when the backend's binary address
// changes or the backend is collected.
func (b *backend) closeBinPipes() {
	b.binMu.Lock()
	pipes := b.binPipes
	b.binPipes = [binPipeCount]*binPipe{}
	b.binMu.Unlock()
	for _, p := range pipes {
		if p != nil {
			p.fail(errPipeClosed)
		}
	}
}

// SetBinaryAdvertise records the host:port published as binary_addr on
// /v1/datacenters and /metrics. Call before serving traffic.
func (rt *Router) SetBinaryAdvertise(addr string) { rt.binAdvertise = addr }

// ListenAndServeBinary binds addr and serves the binary dialect on it. The
// returned channel yields what ServeBinary would have returned.
func (rt *Router) ListenAndServeBinary(addr string) (net.Addr, <-chan error, error) {
	return rt.bin.ListenAndServe(addr, rt.serveBinaryConn)
}

// ServeBinary accepts frame connections on ln until CloseBinary. Returns nil
// on a close-initiated exit, the accept error otherwise.
func (rt *Router) ServeBinary(ln net.Listener) error { return rt.bin.Serve(ln, rt.serveBinaryConn) }

// CloseBinary stops the binary listener and closes every client connection,
// then waits for their handlers. Safe to call with no listener serving.
func (rt *Router) CloseBinary() { rt.bin.Close() }

// binRelaySlot is one of a client connection's binRelayWindow places in its
// response order — relays complete out of order, responses go back in request
// order — and the state of one frame's trip through the router. The
// connection's reader fills the slots round-robin (the window semaphore
// guarantees the writer is done with a slot before the reader comes round to
// it again), so a connection's per-frame state, completion signal and response
// buffer are these, made once. relayStart leaves a slot in one of two shapes:
// frame already holds the response (a router reject); or relayed is set and a
// relay is in flight on a pipe — the writer waits on done, then finish turns
// the backend's frame into the client's.
type binRelaySlot struct {
	rt *Router

	// done carries a relay's completion from the pipe (its reader, or fail)
	// to the connection's writer: exactly one token per relay, and room for
	// it, so completing never blocks.
	done chan struct{}
	// frame is the response, in the slot's own buffer: a reject built here, or
	// the backend's response copied in by the pipe's reader before done. err is
	// the pipe's terminal error in its place.
	frame   []byte
	err     error
	relayed bool

	id    uint64 // the client's frame id, restored on the response
	op    int    // the request's row in wire.Ops
	dc    string
	tr    *obs.Trace // on loan from the recorder until reject or finish
	start time.Time
	// adm and legStart bracket the backend leg of an admitted frame.
	adm      admission
	legStart time.Time
}

// maxKeptRelayResponse bounds the response buffer a slot keeps between
// frames: one oversized response must not pin a megabyte per slot for the
// life of the connection.
const maxKeptRelayResponse = 64 << 10

// serveBinaryConn is one client connection's loop. The reader parses frames
// and dispatches each relay synchronously — resolving the datacenter and
// queueing the frame onto a backend pipe costs no goroutine and no heap
// object — so an entire pipelined burst is on its way to the backends before
// the reader parks and the pipes' writers flush it as one batch. The writer
// goroutine puts responses back in request order (per-connection FIFO is the
// dialect's contract), flushing whenever it would otherwise block — the
// write-behind discipline of the backends' own server. Up to binRelayWindow
// frames ride between reader and writer at once, each in its slot.
func (rt *Router) serveBinaryConn(c net.Conn) {
	br := bufio.NewReaderSize(c, 64<<10)
	bw := bufio.NewWriterSize(c, 64<<10)

	ring := make([]binRelaySlot, binRelayWindow)
	for i := range ring {
		ring[i].rt = rt
		ring[i].done = make(chan struct{}, 1)
	}
	order := make(chan *binRelaySlot, binRelayWindow)
	slots := make(chan struct{}, binRelayWindow)
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		flush := func() {
			if bw.Flush() != nil {
				// The client is gone. Closing the conn unparks the reader;
				// the remaining relays drain into the sticky writer error.
				c.Close()
			}
		}
		for {
			var slot *binRelaySlot
			var ok bool
			select {
			case slot, ok = <-order:
			default:
				// Nothing queued: put buffered responses on the wire before
				// parking.
				flush()
				slot, ok = <-order
			}
			if !ok {
				return
			}
			if slot.relayed {
				select {
				case <-slot.done:
				default:
					// The head relay is still out: flush what's complete,
					// then wait for it.
					flush()
					<-slot.done
				}
				slot.finish()
			}
			bw.Write(slot.frame)
			if cap(slot.frame) > maxKeptRelayResponse {
				slot.frame = nil
			}
			<-slots
		}
	}()

	var raw []byte
	for next := 0; ; next = (next + 1) % binRelayWindow {
		c.SetReadDeadline(time.Now().Add(binFrontIdleTimeout))
		h, frame, err := wire.ReadRawFrame(br, &raw, true)
		if err != nil {
			if err != io.EOF {
				// Garbage framing: nothing on this conn can be trusted
				// anymore (we may be mid-stream). Close without answering.
				rt.binFramingErrors.Add(1)
			}
			break
		}
		slots <- struct{}{}
		slot := &ring[next]
		slot.relayStart(h, frame)
		order <- slot
	}
	// Every queued entry self-completes (a relay through its pipe), so the
	// writer drains the order and exits; nothing else to wait for.
	close(order)
	<-writerDone
	bw.Flush()
}

// relayStart routes one request frame from the connection's reader into the
// slot: resolve the datacenter and pass the same admission gate as the HTTP
// proxy, then queue the frame onto a backend pipe (no goroutine, no blocking
// wait; the writer collects the response). Everything here runs on the reader
// goroutine, so a pipelined burst is fully dispatched before the connection
// turns to its responses.
func (slot *binRelaySlot) relayStart(h wire.Header, frame []byte) {
	rt := slot.rt
	slot.relayed, slot.err = false, nil
	slot.id, slot.start = h.ID, time.Now()
	payload := frame[wire.HeaderSize:]
	slot.op = wire.OpIndex(h.Op)
	if slot.op < 0 {
		slot.answer(400, "unknown opcode "+strconv.Itoa(int(h.Op)))
		return
	}
	info := &wire.Ops[slot.op]
	dcb, ok := wire.PeekDC(payload)
	if !ok {
		slot.answer(400, "bad request payload")
		return
	}
	// Per-frame trace + per-opcode latency. The echoed request id doubles as
	// the trace id — a binary client can look its own frames up on
	// /debug/traces with no wire change (id 0 gets a router-assigned one).
	slot.dc = rt.dcName(dcb)
	slot.tr = rt.rec.Begin(h.ID, obs.DialectBinary, info.Name, slot.dc)
	// The same read/write split as the HTTP path, from the same table.
	read := info.Access == wire.Read
	if info.Access == wire.ReadIfDryRun {
		fl, _ := wire.PeekSelectFlags(payload)
		read = fl&wire.SelectFlagDryRun != 0
	}
	adm, ref := rt.admit(slot.dc, read, slot.tr)
	if ref != nil {
		slot.reject(ref.status, ref.msg)
		return
	}
	slot.adm = adm
	if adm.binAddr == "" {
		// A JSON-only backend: the JSON front serves it, this one cannot. Not
		// evidence about the backend's health, so the breaker is not fed.
		adm.cancel()
		rt.unavailable.Add(1)
		slot.reject(http.StatusServiceUnavailable, unavailableMsg(slot.dc, adm.b,
			"announced no binary_addr (start it with -binary-addr); the JSON front serves its datacenters"))
		return
	}
	// inflight brackets the backend leg — the power-of-two-choices load
	// signal the read picker compares.
	adm.b.inflight.Add(1)
	slot.legStart = time.Now()

	// The backend leg travels under a router-minted relay id (unique across
	// every client conn sharing the pipe — the dialect's pipelining clients
	// reuse one id per conn); the trace id — the client's own, or the one the
	// router assigned a frame that came with id 0 — rides as a FlagTrace
	// payload prefix, so both tiers trace the frame under one id. Lease-keyed
	// frames go onto a pipe by lease id so operations on the same lease keep
	// their client-issued order across the fan-out.
	var pipeKey uint64
	keyed := false
	if info.LeaseKeyed {
		pipeKey, keyed = wire.PeekLease(payload)
	}
	p, err := adm.b.getPipe(adm.binAddr, rt.cfg.ProxyTimeout, pipeKey, keyed)
	if err != nil {
		slot.legFailed("unreachable")
		return
	}
	traceID := h.ID
	if slot.tr != nil {
		traceID = slot.tr.ID
	}
	if err := p.send(slot, h, payload, rt.binRelayID.Add(1), traceID); err != nil {
		slot.legFailed("unreachable")
		return
	}
	slot.relayed = true
}

// answer makes the slot's response a router-originated error frame (bad
// request, unknown datacenter, shard unavailable).
func (slot *binRelaySlot) answer(code int, msg string) {
	slot.rt.binRejected.Add(1)
	slot.frame = wire.AppendErrorResp(slot.frame[:0], slot.id, uint16(code), msg)
}

// reject answers a traced frame with a router-originated error frame,
// recording the per-opcode latency and closing the trace.
func (slot *binRelaySlot) reject(code int, msg string) {
	slot.rt.binOps[slot.op].Observe(time.Since(slot.start), code)
	slot.tr.Finish(code)
	slot.tr = nil
	slot.answer(code, msg)
}

// legFailed closes a backend leg the transport let down.
func (slot *binRelaySlot) legFailed(why string) {
	slot.adm.b.inflight.Add(-1)
	slot.reject(http.StatusServiceUnavailable, slot.rt.legFailed(slot.adm, slot.dc, slot.legStart, why))
}

// finish turns the backend's response to a completed relay into the client's:
// id re-stamp, metrics, trace, breaker evidence.
func (slot *binRelaySlot) finish() {
	slot.tr.Span("backend_leg", slot.legStart)
	if slot.err != nil {
		// Read failure, relay timeout, or a response id nobody was waiting for
		// (a desynced backend): the pipe has already failed and every waiter
		// on it — including this one — got the error.
		slot.legFailed("sent a bad response frame")
		return
	}
	rt, b := slot.rt, slot.adm.b
	b.inflight.Add(-1)
	rt.settle(slot.adm, true)
	b.proxied.Add(1)
	rt.proxiedTotal.Add(1)
	rt.binForwarded.Add(1)
	wire.SetFrameID(slot.frame, slot.id)
	// Relayed backend error frames count as errors in the op metrics, matching
	// how the shard's own dispatch counts them.
	status := http.StatusOK
	if wire.Op(slot.frame[2]) == wire.OpError {
		status = http.StatusInternalServerError
	}
	b.lat.Observe(time.Since(slot.legStart), status)
	rt.binOps[slot.op].Observe(time.Since(slot.start), status)
	slot.tr.Finish(status)
	slot.tr = nil
}
