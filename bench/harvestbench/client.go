package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"harvest/internal/wire"
)

// leaseCap is how many leases one connection holds before its reserving
// selects turn into releases. With the sched mix (select 30 / release 25) the
// held set climbs to the cap within the warm-up and stays there, so every
// connection runs against ~256 live leases of its own.
const leaseCap = 256

// replicationFactor is the R every place and place-block request asks for.
const replicationFactor = 3

// target is where a client connects and what it needs to build requests and
// validate replies.
type target struct {
	addr    string // host:port of the listener that speaks the dialect
	json    bool   // HTTP/1.1 JSON dialect; false = binary frames
	dc      string
	servers []int64 // the population's server ids, for opServer
	classes int     // expected class count on opClasses; 0 skips the check
}

// pending is one request in flight, in send order.
type pending struct {
	kind   opKind
	arg    uint64 // lease id (release, renew) or server id (server)
	id     uint64 // frame id (binary dialect)
	dueNs  int64  // when the request was due, ns since the phase started
	sentNs int64  // when it was actually handed to the socket
}

// tally counts one client's outcomes. A reply is correct when it arrives,
// carries no error status, and passes validation. A conflict is the one error
// reply that is a valid answer (isCreateConflict): neither correct nor failed.
type tally struct {
	attempted uint64
	correct   uint64
	failed    uint64
	conflicts uint64
	firstErr  string
}

func (t *tally) fail(err string) {
	t.failed++
	if t.firstErr == "" {
		t.firstErr = err
	}
}

// lose counts n requests that were (or were due to be) sent but can no longer
// get a reply because the connection broke.
func (t *tally) lose(n int, err error) {
	t.attempted += uint64(n)
	t.failed += uint64(n)
	if t.firstErr == "" && n > 0 {
		t.firstErr = "transport: " + err.Error()
	}
}

// client drives one connection. In the closed loop one goroutine writes and
// reads; in the open loop a paced writer and a reader share only the held
// leases (under mu) and the pending queue.
type client struct {
	t  *target
	st *stream
	nc net.Conn
	br *bufio.Reader

	out    []byte
	nextID uint64

	mu      sync.Mutex
	held    []uint64
	retries int // block creates to send again after a conflict

	lastGen uint64
	tally   tally

	scratch   []byte
	selResp   wire.SelectResp
	relResp   wire.ReleaseResp
	renResp   wire.RenewResp
	clsResp   wire.ClassesResp
	srvResp   wire.ServerClassResp
	placeResp wire.PlaceResp
	blockResp wire.PlaceBlockResp
	errResp   wire.ErrorResp
	reimResp  wire.ReimageResp

	// lostReplicas sums the replicas the connection's reimage requests hit.
	lostReplicas uint64

	// onBlock, when set, sees every created block's replica servers (the
	// storage workload learns which servers hold data from it).
	onBlock func(replicas []int64)
}

func dialClient(t *target, st *stream) (*client, error) {
	nc, err := net.DialTimeout("tcp", t.addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", t.addr, err)
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	return &client{t: t, st: st, nc: nc, br: bufio.NewReaderSize(nc, 64<<10), out: make([]byte, 0, 64<<10)}, nil
}

func (c *client) close() { c.nc.Close() }

// resolve turns a generated request into a concrete one against the leases
// held right now, and returns its argument: the lease to release or renew
// (a release takes it out of held) or the server to look up. A release or
// renew with nothing held becomes a reserving select; a reserving select at
// the lease cap becomes a release — both keep the request a write on the same
// core+ledger code.
func resolve(r request, held *[]uint64, servers []int64) (request, uint64) {
	h := *held
	if (r.Kind == opRelease || r.Kind == opRenew) && len(h) == 0 {
		r.Kind = opSelect
	} else if r.Kind == opSelect && len(h) >= leaseCap {
		r.Kind = opRelease
	}
	var arg uint64
	switch r.Kind {
	case opRelease:
		i := int(r.Pick) % len(h)
		arg = h[i]
		h[i] = h[len(h)-1]
		*held = h[:len(h)-1]
	case opRenew:
		arg = h[int(r.Pick)%len(h)]
	case opServer:
		arg = uint64(servers[int(r.Pick)%len(servers)])
	}
	return r, arg
}

// enqueue appends the next stream request to the output buffer and returns
// its pending record.
func (c *client) enqueue() pending {
	if c.takeRetry() {
		return c.encode(request{Kind: opPlaceBlock}, 0)
	}
	c.mu.Lock()
	r, arg := resolve(c.st.next(), &c.held, c.t.servers)
	c.mu.Unlock()
	return c.encode(r, arg)
}

// conflictVerdict is the verdict of a reply that is a create conflict.
const conflictVerdict = "conflict"

// isCreateConflict recognizes harvestd's optimistic-concurrency answer to a
// block create: 409 "block create kept racing snapshot refreshes". A create
// places against the snapshot it loaded and records against the block ledger's
// generation; a refresh re-keys the ledger just before it publishes its
// snapshot, and a create that keeps landing in that gap — it is microseconds
// wide, but as wide as the scheduler makes it when the refresher loses its CPU
// there — runs out of its eight attempts. Nothing was created and the caller
// is asked to try again, which is what the harness does, as a storage client
// would: the create is sent again in place of the connection's next request.
func isCreateConflict(kind opKind, code int, msg string) bool {
	return kind == opPlaceBlock && code == 409 && strings.Contains(msg, "kept racing")
}

// takeRetry claims one pending re-send of a conflicted block create.
func (c *client) takeRetry() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.retries == 0 {
		return false
	}
	c.retries--
	return true
}

// encode appends one concrete request to the output buffer in the
// connection's dialect.
func (c *client) encode(r request, arg uint64) pending {
	c.nextID++
	p := pending{kind: r.Kind, arg: arg, id: c.nextID}
	if c.t.json {
		c.out = appendJSONRequest(c.out, c.t.dc, r, arg)
	} else {
		c.out = appendBinaryRequest(c.out, p.id, c.t.dc, r, arg)
	}
	return p
}

// roundTrip flushes a pipelined batch and reads every reply to it.
func (c *client) roundTrip(batch []pending) error {
	if err := c.flush(); err != nil {
		c.tally.lose(len(batch), err)
		return err
	}
	for i, p := range batch {
		if err := c.readReply(p); err != nil {
			c.tally.lose(len(batch)-i-1, err)
			return err
		}
	}
	return nil
}

func (c *client) flush() error {
	if len(c.out) == 0 {
		return nil
	}
	_, err := c.nc.Write(c.out)
	c.out = c.out[:0]
	return err
}

func jobTypeName(job uint8) string {
	switch job {
	case wire.JobShort:
		return "short"
	case wire.JobMedium:
		return "medium"
	case wire.JobLong:
		return "long"
	}
	return "" // JobFromLastRun: the JSON API classifies last_run_seconds
}

func appendBinaryRequest(dst []byte, id uint64, dc string, r request, arg uint64) []byte {
	switch r.Kind {
	case opSelect, opDrySelect:
		m := wire.SelectReq{Job: r.Job, MaxCores: r.Cores, LastRunSeconds: r.LastRun, HoldMillis: r.HoldMillis}
		if r.Kind == opDrySelect {
			m.Flags = wire.SelectFlagDryRun
		}
		return wire.AppendSelectReq(dst, id, dc, m)
	case opRelease:
		return wire.AppendReleaseReq(dst, id, dc, arg)
	case opRenew:
		return wire.AppendRenewReq(dst, id, dc, wire.RenewReq{Lease: arg})
	case opClasses:
		return wire.AppendClassesReq(dst, id, dc)
	case opServer:
		return wire.AppendServerClassReq(dst, id, dc, int64(arg))
	case opPlace:
		return wire.AppendPlaceReq(dst, id, dc, wire.PlaceReq{Replication: replicationFactor, Writer: -1})
	case opPlaceBlock:
		return wire.AppendPlaceBlockReq(dst, id, dc, wire.PlaceBlockReq{Replication: replicationFactor, Writer: -1})
	case opReimage:
		return wire.AppendReimageReq(dst, id, dc, int64(arg))
	}
	panic("harvestbench: unknown op kind")
}

func appendJSONRequest(dst []byte, dc string, r request, arg uint64) []byte {
	var path string
	var body []byte
	switch r.Kind {
	case opSelect, opDrySelect:
		path = "/select"
		body = append(body, `{"max_concurrent_cores":`...)
		body = strconv.AppendFloat(body, r.Cores, 'g', -1, 64)
		if name := jobTypeName(r.Job); name != "" {
			body = append(body, `,"job_type":"`...)
			body = append(body, name...)
			body = append(body, '"')
		} else {
			body = append(body, `,"last_run_seconds":`...)
			body = strconv.AppendFloat(body, r.LastRun, 'g', -1, 64)
		}
		if r.Kind == opDrySelect {
			body = append(body, `,"dry_run":true`...)
		}
		if r.HoldMillis > 0 {
			body = append(body, `,"hold_seconds":`...)
			body = strconv.AppendFloat(body, float64(r.HoldMillis)/1000, 'g', -1, 64)
		}
		body = append(body, '}')
	case opRelease, opRenew:
		path = "/release"
		if r.Kind == opRenew {
			path = "/renew"
		}
		body = append(body, `{"lease":`...)
		body = strconv.AppendUint(body, arg, 10)
		body = append(body, '}')
	case opClasses:
		path = "/classes"
	case opServer:
		path = "/servers/" + strconv.FormatUint(arg, 10) + "/class"
	case opPlace, opPlaceBlock:
		path = "/place"
		if r.Kind == opPlaceBlock {
			path = "/blocks"
		}
		body = append(body, `{"replication":`...)
		body = strconv.AppendInt(body, replicationFactor, 10)
		body = append(body, '}')
	case opReimage:
		path = "/reimage"
		body = append(body, `{"server":`...)
		body = strconv.AppendUint(body, arg, 10)
		body = append(body, '}')
	}
	method := "GET"
	if body != nil {
		method = "POST"
	}
	dst = append(dst, method...)
	dst = append(dst, " /v1/"...)
	dst = append(dst, dc...)
	dst = append(dst, path...)
	dst = append(dst, " HTTP/1.1\r\nHost: harvestd\r\n"...)
	if body != nil {
		dst = append(dst, "Content-Type: application/json\r\nContent-Length: "...)
		dst = strconv.AppendInt(dst, int64(len(body)), 10)
		dst = append(dst, "\r\n"...)
	}
	dst = append(dst, "\r\n"...)
	return append(dst, body...)
}

// readReply reads and validates the reply to p, updating the tally and the
// held leases. A transport error is returned (the connection is unusable);
// an error status or a reply that fails validation only counts as failed.
func (c *client) readReply(p pending) error {
	c.tally.attempted++
	var verdict string
	var err error
	if c.t.json {
		verdict, err = c.readJSONReply(p)
	} else {
		verdict, err = c.readBinaryReply(p)
	}
	if err != nil {
		c.tally.fail("transport: " + err.Error())
		return err
	}
	switch verdict {
	case "":
		c.tally.correct++
	case conflictVerdict:
		c.tally.conflicts++
		c.mu.Lock()
		c.retries++
		c.mu.Unlock()
	default:
		c.tally.fail(p.kind.String() + ": " + verdict)
	}
	return nil
}

// seeGeneration enforces that one connection never sees the snapshot
// generation go backwards.
func (c *client) seeGeneration(gen uint64) string {
	if gen < c.lastGen {
		return fmt.Sprintf("generation went backwards: %d after %d", gen, c.lastGen)
	}
	c.lastGen = gen
	return ""
}

func (c *client) hold(lease uint64) {
	c.mu.Lock()
	c.held = append(c.held, lease)
	c.mu.Unlock()
}

func checkReplicas(replicas []int64) string {
	if len(replicas) != replicationFactor {
		return fmt.Sprintf("%d replicas, want %d", len(replicas), replicationFactor)
	}
	for i, s := range replicas {
		for _, prev := range replicas[:i] {
			if s == prev {
				return fmt.Sprintf("replica server %d repeated", s)
			}
		}
	}
	return ""
}

// checkSelect validates a select reply in either dialect's decoded form.
func (c *client) checkSelect(p pending, gen, lease uint64, satisfiable bool, granted float64) string {
	if v := c.seeGeneration(gen); v != "" {
		return v
	}
	if p.kind == opDrySelect {
		if lease != 0 {
			return "dry-run select returned a lease"
		}
		return ""
	}
	if satisfiable != (lease != 0) {
		return fmt.Sprintf("satisfiable=%v but lease=%d", satisfiable, lease)
	}
	if lease != 0 {
		if !(granted > 0) {
			return "lease with no granted cores"
		}
		c.hold(lease)
	}
	return ""
}

func (c *client) readBinaryReply(p pending) (verdict string, err error) {
	h, payload, err := wire.ReadFrame(c.br, &c.scratch)
	if err != nil {
		return "", err
	}
	if h.ID != p.id {
		return "", fmt.Errorf("reply id %d, want %d: replies out of order", h.ID, p.id)
	}
	if h.Op == wire.OpError {
		if c.errResp.Decode(payload) != nil {
			return "undecodable error frame", nil
		}
		if isCreateConflict(p.kind, int(c.errResp.Code), string(c.errResp.Message)) {
			return conflictVerdict, nil
		}
		return fmt.Sprintf("error frame %d: %s", c.errResp.Code, c.errResp.Message), nil
	}
	bad := func(derr error) (string, error) { return "undecodable reply: " + derr.Error(), nil }
	switch p.kind {
	case opSelect, opDrySelect:
		if h.Op != wire.OpSelectResp {
			return "wrong reply opcode " + h.Op.String(), nil
		}
		m := &c.selResp
		if derr := m.Decode(payload); derr != nil {
			return bad(derr)
		}
		var granted float64
		for _, g := range m.Classes {
			granted += g.Granted
		}
		return c.checkSelect(p, m.Generation, m.Lease, m.Satisfiable, granted), nil
	case opRelease:
		if derr := c.relResp.Decode(payload); derr != nil {
			return bad(derr)
		}
		if c.relResp.Lease != p.arg || c.relResp.TotalMillis <= 0 {
			return fmt.Sprintf("released lease %d (%d millis), want %d", c.relResp.Lease, c.relResp.TotalMillis, p.arg), nil
		}
	case opRenew:
		if derr := c.renResp.Decode(payload); derr != nil {
			return bad(derr)
		}
		if c.renResp.Lease != p.arg {
			return fmt.Sprintf("renewed lease %d, want %d", c.renResp.Lease, p.arg), nil
		}
	case opClasses:
		if derr := c.clsResp.Decode(payload); derr != nil {
			return bad(derr)
		}
		if c.t.classes > 0 && len(c.clsResp.Classes) != c.t.classes {
			return fmt.Sprintf("%d classes, want %d", len(c.clsResp.Classes), c.t.classes), nil
		}
		return c.seeGeneration(c.clsResp.Generation), nil
	case opServer:
		if derr := c.srvResp.Decode(payload); derr != nil {
			return bad(derr)
		}
		if uint64(c.srvResp.Server) != p.arg {
			return fmt.Sprintf("class of server %d, want %d", c.srvResp.Server, p.arg), nil
		}
		return c.seeGeneration(c.srvResp.Generation), nil
	case opPlace:
		if derr := c.placeResp.Decode(payload); derr != nil {
			return bad(derr)
		}
		if v := checkReplicas(c.placeResp.Replicas); v != "" {
			return v, nil
		}
		return c.seeGeneration(c.placeResp.Generation), nil
	case opPlaceBlock:
		if derr := c.blockResp.Decode(payload); derr != nil {
			return bad(derr)
		}
		if c.blockResp.Block == 0 {
			return "block id 0", nil
		}
		if v := checkReplicas(c.blockResp.Replicas); v != "" {
			return v, nil
		}
		if c.onBlock != nil {
			c.onBlock(c.blockResp.Replicas)
		}
		return c.seeGeneration(c.blockResp.Generation), nil
	case opReimage:
		if derr := c.reimResp.Decode(payload); derr != nil {
			return bad(derr)
		}
		if uint64(c.reimResp.Server) != p.arg {
			return fmt.Sprintf("reimaged server %d, want %d", c.reimResp.Server, p.arg), nil
		}
		c.lostReplicas += uint64(c.reimResp.Lost)
	}
	return "", nil
}

// jsonReply is the union of the JSON API's reply fields the checks read.
type jsonReply struct {
	Generation    uint64          `json:"generation"`
	Satisfiable   bool            `json:"satisfiable"`
	Lease         uint64          `json:"lease"`
	Granted       []float64       `json:"granted"`
	ReleasedCores float64         `json:"released_cores"`
	Server        int64           `json:"server"`
	Block         uint64          `json:"block"`
	Replicas      []int64         `json:"replicas"`
	Lost          uint64          `json:"lost"`
	Classes       json.RawMessage `json:"classes"`
	Error         string          `json:"error"`
}

func (c *client) readJSONReply(p pending) (verdict string, err error) {
	status, body, err := readHTTPResponse(c.br, c.scratch[:0])
	if err != nil {
		return "", err
	}
	c.scratch = body[:0]
	var m jsonReply
	if derr := json.Unmarshal(body, &m); derr != nil {
		return "undecodable reply: " + derr.Error(), nil
	}
	if status < 200 || status > 299 {
		if isCreateConflict(p.kind, status, m.Error) {
			return conflictVerdict, nil
		}
		return fmt.Sprintf("status %d: %s", status, m.Error), nil
	}
	switch p.kind {
	case opSelect, opDrySelect:
		var granted float64
		for _, g := range m.Granted {
			granted += g
		}
		return c.checkSelect(p, m.Generation, m.Lease, m.Satisfiable, granted), nil
	case opRelease:
		if m.Lease != p.arg || !(m.ReleasedCores > 0) {
			return fmt.Sprintf("released lease %d (%g cores), want %d", m.Lease, m.ReleasedCores, p.arg), nil
		}
	case opRenew:
		if m.Lease != p.arg {
			return fmt.Sprintf("renewed lease %d, want %d", m.Lease, p.arg), nil
		}
	case opClasses:
		var classes []json.RawMessage
		if derr := json.Unmarshal(m.Classes, &classes); derr != nil {
			return "undecodable classes: " + derr.Error(), nil
		}
		if c.t.classes > 0 && len(classes) != c.t.classes {
			return fmt.Sprintf("%d classes, want %d", len(classes), c.t.classes), nil
		}
		return c.seeGeneration(m.Generation), nil
	case opServer:
		if uint64(m.Server) != p.arg {
			return fmt.Sprintf("class of server %d, want %d", m.Server, p.arg), nil
		}
		return c.seeGeneration(m.Generation), nil
	case opPlace, opPlaceBlock:
		if p.kind == opPlaceBlock && m.Block == 0 {
			return "block id 0", nil
		}
		if v := checkReplicas(m.Replicas); v != "" {
			return v, nil
		}
		if p.kind == opPlaceBlock && c.onBlock != nil {
			c.onBlock(m.Replicas)
		}
		return c.seeGeneration(m.Generation), nil
	case opReimage:
		if uint64(m.Server) != p.arg {
			return fmt.Sprintf("reimaged server %d, want %d", m.Server, p.arg), nil
		}
		c.lostReplicas += m.Lost
	}
	return "", nil
}

var (
	httpStatusPrefix = []byte("HTTP/1.1 ")
	contentLengthHdr = []byte("Content-Length: ")
)

// readHTTPResponse parses one HTTP/1.1 response with an explicit
// Content-Length — the only kind harvestd and harvestrouter send
// (internal/httpjson) — into body, growing it as needed.
func readHTTPResponse(br *bufio.Reader, body []byte) (int, []byte, error) {
	line, err := br.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, httpStatusPrefix) {
		return 0, nil, fmt.Errorf("malformed status line %q", line)
	}
	status, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, nil, fmt.Errorf("malformed status line %q", line)
	}
	length := -1
	for {
		if line, err = br.ReadSlice('\n'); err != nil {
			return 0, nil, err
		}
		if len(line) <= 2 {
			break
		}
		if bytes.HasPrefix(line, contentLengthHdr) {
			if length, err = strconv.Atoi(string(bytes.TrimSpace(line[len(contentLengthHdr):]))); err != nil {
				return 0, nil, fmt.Errorf("malformed Content-Length %q", line)
			}
		}
	}
	if length < 0 {
		return 0, nil, errors.New("response without Content-Length")
	}
	if cap(body) < length {
		body = make([]byte, length)
	}
	body = body[:length]
	if _, err := io.ReadFull(br, body); err != nil {
		return 0, nil, err
	}
	return status, body, nil
}

// runClosed drives the connection as a caller that waits for replies: fill a
// pipeline window of depth requests, flush once, read every reply, repeat
// until dur has passed.
func (c *client) runClosed(dur time.Duration, depth int) error {
	batch := make([]pending, 0, depth)
	for start := time.Now(); time.Since(start) < dur; {
		batch = batch[:0]
		for len(batch) < depth {
			batch = append(batch, c.enqueue())
		}
		if err := c.roundTrip(batch); err != nil {
			return err
		}
	}
	return nil
}

// openResult is one connection's open-loop phase, one entry per request that
// got a correct reply: when it was due (seconds into the phase), its latency
// from that due time, and how late the generator sent it (both µs).
type openResult struct {
	dueS   []float64
	latUs  []float64
	lateUs []float64
}

// preciseSleep blocks the calling thread in nanosleep(2). time.Sleep parks the
// goroutine on the runtime's timers, and an otherwise idle runtime waits for
// those in epoll_wait, whose timeout has millisecond resolution: a 40 µs gap
// becomes 1 ms, and the open loop measures its own generator. nanosleep is
// bounded by the kernel's timer slack (50 µs) instead.
func preciseSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(d.Nanoseconds())
	syscall.Nanosleep(&ts, nil)
}

// openBatchLimit bounds how many overdue requests the paced writer sends in
// one write: when the generator falls behind it catches up in bounded bursts
// instead of one unbounded one.
const openBatchLimit = 128

// runOpen drives the connection on a schedule: request i is due at
// offset + i·interval after start, whether or not earlier replies have
// arrived. The writer sleeps until the next due time, sends everything that
// is due, and never waits for replies; a reader goroutine matches replies in
// order and times each from its due time, so a server stall is charged to
// every request it delayed.
func (c *client) runOpen(start time.Time, dur, interval, offset time.Duration) (openResult, error) {
	n := int((dur - offset) / interval)
	res := openResult{
		dueS:   make([]float64, 0, n),
		latUs:  make([]float64, 0, n),
		lateUs: make([]float64, 0, n),
	}
	// The queue is sized to the whole schedule, so the writer never blocks on
	// the reader: an open loop's backlog must be free to grow.
	queue := make(chan pending, n)
	readErr := make(chan error, 1)
	go func() {
		var err error
		for p := range queue {
			if err != nil {
				c.tally.lose(1, err)
				continue
			}
			before := c.tally.correct
			if err = c.readReply(p); err != nil {
				continue
			}
			if c.tally.correct > before {
				now := time.Since(start).Nanoseconds()
				res.dueS = append(res.dueS, float64(p.dueNs)/1e9)
				res.latUs = append(res.latUs, float64(now-p.dueNs)/1e3)
				res.lateUs = append(res.lateUs, float64(p.sentNs-p.dueNs)/1e3)
			}
		}
		readErr <- err
	}()

	var sendErr error
	i := 0
	for i < n && sendErr == nil {
		due := offset + time.Duration(i)*interval
		now := time.Since(start)
		if due > now {
			preciseSleep(due - now)
			continue
		}
		for sent := 0; i < n && sent < openBatchLimit; sent, i = sent+1, i+1 {
			due = offset + time.Duration(i)*interval
			if due > now {
				break
			}
			p := c.enqueue()
			p.dueNs, p.sentNs = due.Nanoseconds(), now.Nanoseconds()
			queue <- p
		}
		sendErr = c.flush()
	}
	close(queue)
	err := <-readErr
	if sendErr != nil {
		c.tally.lose(n-i, sendErr) // the rest of the schedule was never sent
		return res, sendErr
	}
	return res, err
}

// control sends one fixed request per arg, pipelined 64 at a time, and
// validates every reply — the off-the-measured-path traffic: the
// standing-lease preload, the reimaging wave, and the final lease drain. Block
// creates that met a conflict, here or on the measured path before, go first.
func (c *client) control(r request, args []uint64) error {
	for {
		var batch []pending
		for len(batch) < 64 && c.takeRetry() {
			batch = append(batch, c.encode(request{Kind: opPlaceBlock}, 0))
		}
		for ; len(args) > 0 && len(batch) < 64; args = args[1:] {
			batch = append(batch, c.encode(r, args[0]))
		}
		if len(batch) == 0 {
			return nil
		}
		if err := c.roundTrip(batch); err != nil {
			return err
		}
	}
}

// drain releases every lease the connection still holds, so the workload's
// books can be checked at outstanding == 0.
func (c *client) drain() error {
	held := c.held
	c.held = nil
	return c.control(request{Kind: opRelease}, held)
}
