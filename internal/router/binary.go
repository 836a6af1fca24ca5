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

// binCall is one in-flight relay on a pipe: the response frame (an owned
// copy) or the pipe's terminal error arrives via done.
type binCall struct {
	done  chan struct{}
	frame []byte
	err   error
}

// binPipe is one pipelined connection to a backend's binary listener.
// Senders — one per relayed frame, from any number of client connections —
// enqueue onto sendq; the single writer goroutine drains the queue into a
// buffered writer and flushes once per batch, so a burst of relays costs one
// write syscall, not one each. The single reader goroutine completes waiters
// by the echoed relay id. Any read error, timeout with frames in flight, or
// unknown id is terminal: the stream can no longer be trusted, so every
// waiter fails and the pipe is removed from its backend.
type binPipe struct {
	c       net.Conn
	br      *bufio.Reader
	bw      *bufio.Writer
	timeout time.Duration

	sendq chan []byte // frames queued for the writer goroutine

	mu      sync.Mutex
	waiters map[uint64]*binCall

	// closed flips exactly once, in fail. It is read lock-free on the hot
	// paths (getPipe scans every pipe per relayed frame); the waiters map is
	// still guarded by mu, and fail orders the flip before the sweep.
	closed atomic.Bool

	kick chan struct{} // cap 1: wakes the parked reader when a frame is in flight
	stop chan struct{} // closed on failure: unparks the reader and writer for exit

	inFlight atomic.Int64
	lastUse  atomic.Int64 // unix nanos of the last send or response
}

func newBinPipe(c net.Conn, timeout time.Duration) *binPipe {
	p := &binPipe{
		c:       c,
		br:      bufio.NewReaderSize(c, 64<<10),
		bw:      bufio.NewWriterSize(c, 64<<10),
		timeout: timeout,
		sendq:   make(chan []byte, 4*binRelayWindow),
		waiters: make(map[uint64]*binCall, binRelayWindow),
		kick:    make(chan struct{}, 1),
		stop:    make(chan struct{}),
	}
	p.lastUse.Store(time.Now().UnixNano())
	return p
}

func (p *binPipe) dead() bool { return p.closed.Load() }

// send registers call under relayID (which the caller already stamped into
// the frame header) and queues the frame for the writer. The response (or
// the pipe's failure) arrives via call.done; on a send error the pipe has
// already failed, which completed the call.
func (p *binPipe) send(relayID uint64, frame []byte, call *binCall) error {
	p.mu.Lock()
	if p.closed.Load() {
		p.mu.Unlock()
		return errPipeClosed
	}
	p.waiters[relayID] = call
	p.mu.Unlock()
	p.inFlight.Add(1)
	p.lastUse.Store(time.Now().UnixNano())
	select {
	case p.sendq <- frame:
	case <-p.stop:
		// fail already swept the waiters map — this call included.
		return errPipeClosed
	}
	select {
	case p.kick <- struct{}{}:
	default:
	}
	return nil
}

// writeLoop is the pipe's single writer: it drains every queued frame into
// the buffered writer and flushes once the queue runs dry, so relays arriving
// together share a syscall. Relay goroutines trickle onto the queue one
// scheduler slice at a time, so an empty queue right after a write usually
// means the batch is still forming, not that it is over — the loop yields
// once and re-drains before paying the flush syscall. A write or flush error
// is terminal: the stream may hold a partial frame and nothing sane can
// follow.
func (p *binPipe) writeLoop() {
	for {
		var frame []byte
		select {
		case frame = <-p.sendq:
		case <-p.stop:
			return
		}
		p.c.SetWriteDeadline(time.Now().Add(p.timeout))
		yielded := false
		for {
			if _, err := p.bw.Write(frame); err != nil {
				p.fail(err)
				return
			}
			select {
			case frame = <-p.sendq:
				continue
			default:
			}
			if !yielded {
				yielded = true
				runtime.Gosched()
				select {
				case frame = <-p.sendq:
					continue
				default:
				}
			}
			break
		}
		if err := p.bw.Flush(); err != nil {
			p.fail(err)
			return
		}
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
		call, ok := p.waiters[h.ID]
		delete(p.waiters, h.ID)
		p.mu.Unlock()
		if !ok {
			p.fail(errPipeDesync)
			return
		}
		p.lastUse.Store(time.Now().UnixNano())
		// The scratch buffer is reused for the next frame; the waiter gets
		// an owned copy.
		call.frame = append([]byte(nil), frame...)
		close(call.done)
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
	for _, call := range waiters {
		call.err = err
		close(call.done)
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

// pendingBinResp is one client frame's slot in the connection's response
// order — relays complete out of order, responses go back in request order —
// and the state of its trip through the router. relayStart leaves it in one of
// two shapes: frame set, the response is already built (a router reject); or
// call set, a relay is in flight on a pipe — the writer waits on call.done,
// then finish turns the backend's frame into the client's.
type pendingBinResp struct {
	frame []byte
	call  *binCall

	rt    *Router
	id    uint64 // the client's frame id: the trace id, restored on the response
	op    int    // the request's row in wire.Ops
	dc    string
	tr    *obs.Trace
	start time.Time
	// adm and legStart bracket the backend leg of an admitted frame.
	adm      admission
	legStart time.Time
}

// serveBinaryConn is one client connection's loop. The reader parses frames
// and dispatches each relay synchronously — resolving the datacenter and
// queueing the frame onto a backend pipe costs no goroutine and no copy — so
// an entire pipelined burst is on its way to the backends before the reader
// parks and the pipes' writers flush it as one batch. The writer goroutine
// puts responses back in request order (per-connection FIFO is the dialect's
// contract), flushing whenever it would otherwise block — the write-behind
// discipline of the backends' own server. Up to binRelayWindow frames ride
// between reader and writer at once.
func (rt *Router) serveBinaryConn(c net.Conn) {
	br := bufio.NewReaderSize(c, 64<<10)
	bw := bufio.NewWriterSize(c, 64<<10)

	order := make(chan *pendingBinResp, binRelayWindow)
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
			var pr *pendingBinResp
			var ok bool
			select {
			case pr, ok = <-order:
			default:
				// Nothing queued: put buffered responses on the wire before
				// parking.
				flush()
				pr, ok = <-order
			}
			if !ok {
				return
			}
			frame := pr.frame
			if pr.call != nil {
				select {
				case <-pr.call.done:
				default:
					// The head relay is still out: flush what's complete,
					// then wait for it.
					flush()
					<-pr.call.done
				}
				frame = pr.finish()
			}
			bw.Write(frame)
			<-slots
		}
	}()

	var raw []byte
	for {
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
		order <- rt.relayStart(h, frame)
	}
	// Every queued entry self-completes (a relay through its pipe), so the
	// writer drains the order and exits; nothing else to wait for.
	close(order)
	<-writerDone
	bw.Flush()
}

// binReject builds a router-originated error frame (bad request, unknown
// datacenter, shard unavailable).
func (rt *Router) binReject(id uint64, code uint16, msg string) []byte {
	rt.binRejected.Add(1)
	return wire.AppendErrorResp(nil, id, code, msg)
}

// relayStart routes one request frame from the connection's reader: resolve
// the datacenter and pass the same admission gate as the HTTP proxy, then
// queue the frame onto a backend pipe (no goroutine, no blocking wait; the
// writer collects the response). Everything here runs on the reader goroutine,
// so a pipelined burst is fully dispatched before the connection turns to its
// responses.
func (rt *Router) relayStart(h wire.Header, frame []byte) *pendingBinResp {
	payload := frame[wire.HeaderSize:]
	op := wire.OpIndex(h.Op)
	if op < 0 {
		return &pendingBinResp{frame: rt.binReject(h.ID, 400, "unknown opcode "+strconv.Itoa(int(h.Op)))}
	}
	info := &wire.Ops[op]
	dcb, ok := wire.PeekDC(payload)
	if !ok {
		return &pendingBinResp{frame: rt.binReject(h.ID, 400, "bad request payload")}
	}
	// Per-frame trace + per-opcode latency. The echoed request id doubles as
	// the trace id — a binary client can look its own frames up on
	// /debug/traces with no wire change (id 0 gets a router-assigned one).
	pr := &pendingBinResp{rt: rt, id: h.ID, op: op, dc: string(dcb), start: time.Now()}
	pr.tr = rt.rec.Begin(h.ID, obs.DialectBinary, info.Name, pr.dc)
	// The same read/write split as the HTTP path, from the same table.
	read := info.Access == wire.Read
	if info.Access == wire.ReadIfDryRun {
		fl, _ := wire.PeekSelectFlags(payload)
		read = fl&wire.SelectFlagDryRun != 0
	}
	adm, ref := rt.admit(pr.dc, read, pr.tr)
	if ref != nil {
		return pr.reject(ref.status, ref.msg)
	}
	pr.adm = adm
	if adm.binAddr == "" {
		// A JSON-only backend: the JSON front serves it, this one cannot. Not
		// evidence about the backend's health, so the breaker is not fed.
		adm.cancel()
		rt.unavailable.Add(1)
		return pr.reject(http.StatusServiceUnavailable, unavailableMsg(pr.dc, adm.b,
			"announced no binary_addr (start it with -binary-addr); the JSON front serves its datacenters"))
	}
	// inflight brackets the backend leg — the power-of-two-choices load
	// signal the read picker compares.
	adm.b.inflight.Add(1)
	pr.legStart = time.Now()

	// The backend leg travels under a router-minted relay id (unique across
	// every client conn sharing the pipe — the dialect's pipelining clients
	// reuse one id per conn); the client's id — the trace id on both tiers —
	// rides as a FlagTrace payload prefix. Lease-keyed frames go onto a pipe
	// by lease id so operations on the same lease keep their client-issued
	// order across the fan-out.
	var pipeKey uint64
	keyed := false
	if info.LeaseKeyed {
		pipeKey, keyed = wire.PeekLease(payload)
	}
	p, err := adm.b.getPipe(adm.binAddr, rt.cfg.ProxyTimeout, pipeKey, keyed)
	if err != nil {
		return pr.legFailed("unreachable")
	}
	relayID := rt.binRelayID.Add(1)
	relayed := wire.AppendRelayFrame(make([]byte, 0, len(frame)+8), h, payload, relayID, h.ID)
	call := &binCall{done: make(chan struct{})}
	if err := p.send(relayID, relayed, call); err != nil {
		return pr.legFailed("unreachable")
	}
	pr.call = call
	return pr
}

// reject answers the frame with a router-originated error frame, recording
// the per-opcode latency and closing the trace.
func (pr *pendingBinResp) reject(code int, msg string) *pendingBinResp {
	pr.rt.binOps[pr.op].Observe(time.Since(pr.start), code)
	pr.tr.Finish(code)
	pr.frame = pr.rt.binReject(pr.id, uint16(code), msg)
	return pr
}

// legFailed closes a backend leg the transport let down.
func (pr *pendingBinResp) legFailed(why string) *pendingBinResp {
	pr.adm.b.inflight.Add(-1)
	return pr.reject(http.StatusServiceUnavailable, pr.rt.legFailed(pr.adm, pr.dc, pr.legStart, why))
}

// finish turns the backend's response to a completed relay into the client's:
// id re-stamp, metrics, trace, breaker evidence.
func (pr *pendingBinResp) finish() []byte {
	pr.tr.Span("backend_leg", pr.legStart)
	call := pr.call
	if call.err != nil {
		// Read failure, relay timeout, or a response id nobody was waiting for
		// (a desynced backend): the pipe has already failed and every waiter
		// on it — including this one — got the error.
		return pr.legFailed("sent a bad response frame").frame
	}
	rt, b := pr.rt, pr.adm.b
	b.inflight.Add(-1)
	rt.settle(pr.adm, true)
	b.proxied.Add(1)
	rt.proxiedTotal.Add(1)
	rt.binForwarded.Add(1)
	wire.SetFrameID(call.frame, pr.id)
	// Relayed backend error frames count as errors in the op metrics, matching
	// how the shard's own dispatch counts them.
	status := http.StatusOK
	if wire.Op(call.frame[2]) == wire.OpError {
		status = http.StatusInternalServerError
	}
	b.lat.Observe(time.Since(pr.legStart), status)
	rt.binOps[pr.op].Observe(time.Since(pr.start), status)
	pr.tr.Finish(status)
	return call.frame
}
