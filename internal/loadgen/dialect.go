package loadgen

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"

	"harvest/internal/obs"
	"harvest/internal/wire"
)

// dialect is the one seam between the driver and a wire format: it encodes a
// resolved request and reads the next pipelined reply. Nothing outside this
// file knows which format a connection speaks. A dialect value belongs to one
// connection (it owns decode scratch).
type dialect interface {
	appendRequest(dst []byte, dc string, r request) []byte
	// readReply fills rep from the next reply. An error means the connection
	// is unusable (transport failure or a malformed reply).
	readReply(br *bufio.Reader, rep *reply) error
}

// reply is what the driver reads of any reply, whatever the op: whether the
// tier refused it, and the values a later request can be built from.
type reply struct {
	failed  bool     // status ≥ 400 or an error frame
	lease   uint64   // the lease the reply names, 0 when none
	servers []int64  // the replica servers the reply names
	trace   [16]byte // hex trace id the tier answered under; zero first byte when none
	backend []byte   // the router's X-Harvest-Backend: which replica served it
}

func (rep *reply) reset() {
	*rep = reply{servers: rep.servers[:0], backend: rep.backend[:0]}
}

// protos ties each -proto name to its dialect and to which of the target's
// two advertised listeners speaks it.
var protos = map[string]struct {
	addr func(t *target) string
	new  func(frameID uint64) dialect
}{
	"json":   {func(t *target) string { return t.httpAddr }, func(uint64) dialect { return &jsonDialect{} }},
	"binary": {func(t *target) string { return t.binaryAddr }, newBinaryDialect},
}

const (
	// replication is the R every place request asks for.
	replication = 3
	// renewHoldMillis is the TTL a renew asks for: long enough that a renewed
	// lease never expires mid-run, short enough that leaked leases age out
	// quickly after.
	renewHoldMillis = 30_000
)

// binaryDialect speaks internal/wire's length-prefixed frames. Every frame of
// a connection carries the same id: pipelined replies return in order, so the
// id disambiguates nothing on the wire — but the servers adopt it as the trace
// id, which is what makes a connection's requests findable in /debug/traces.
type binaryDialect struct {
	id        uint64
	trace     [16]byte
	scratch   []byte
	selResp   wire.SelectResp
	placeResp wire.PlaceResp
}

func newBinaryDialect(frameID uint64) dialect {
	d := &binaryDialect{id: frameID}
	copy(d.trace[:], obs.FormatTraceID(frameID))
	return d
}

func (d *binaryDialect) appendRequest(dst []byte, dc string, r request) []byte {
	switch r.Kind {
	case opSelect:
		return wire.AppendSelectReq(dst, d.id, dc, wire.SelectReq{Job: r.Job, MaxCores: r.Cores})
	case opDrySelect:
		return wire.AppendSelectReq(dst, d.id, dc, wire.SelectReq{Job: r.Job, MaxCores: r.Cores, Flags: wire.SelectFlagDryRun})
	case opRelease:
		return wire.AppendReleaseReq(dst, d.id, dc, r.Arg)
	case opRenew:
		return wire.AppendRenewReq(dst, d.id, dc, wire.RenewReq{Lease: r.Arg, HoldMillis: renewHoldMillis})
	case opPlace:
		return wire.AppendPlaceReq(dst, d.id, dc, wire.PlaceReq{Replication: replication, Writer: -1})
	case opClasses:
		return wire.AppendClassesReq(dst, d.id, dc)
	case opServer:
		return wire.AppendServerClassReq(dst, d.id, dc, int64(r.Arg))
	}
	panic("loadgen: unknown op kind")
}

func (d *binaryDialect) readReply(br *bufio.Reader, rep *reply) error {
	rep.reset()
	h, payload, err := wire.ReadFrame(br, &d.scratch)
	if err != nil {
		return err
	}
	rep.trace = d.trace
	switch h.Op {
	case wire.OpError:
		rep.failed = true
	case wire.OpSelectResp:
		if err := d.selResp.Decode(payload); err != nil {
			return fmt.Errorf("undecodable select reply: %w", err)
		}
		rep.lease = d.selResp.Lease
	case wire.OpPlaceResp:
		if err := d.placeResp.Decode(payload); err != nil {
			return fmt.Errorf("undecodable place reply: %w", err)
		}
		rep.servers = append(rep.servers, d.placeResp.Replicas...)
	}
	return nil
}

// jsonDialect speaks pipelined HTTP/1.1 with JSON bodies, bypassing net/http
// in both directions so one core can drive the server well past what a stock
// client reaches: requests are appended byte by byte, replies parsed by
// readResponse and scanned, not unmarshalled.
type jsonDialect struct {
	body []byte
}

var jobTypeNames = [...]string{wire.JobShort: "short", wire.JobMedium: "medium", wire.JobLong: "long"}

func (d *jsonDialect) appendRequest(dst []byte, dc string, r request) []byte {
	var buf [96]byte
	body := buf[:0]
	method, path := "POST", ""
	switch r.Kind {
	case opSelect, opDrySelect:
		path = "/select"
		body = append(body, `{"job_type":"`...)
		body = append(body, jobTypeNames[r.Job]...)
		body = append(body, `","max_concurrent_cores":`...)
		body = strconv.AppendFloat(body, r.Cores, 'g', -1, 64)
		if r.Kind == opDrySelect {
			body = append(body, `,"dry_run":true`...)
		}
	case opRelease:
		path = "/release"
		body = append(body, `{"lease":`...)
		body = strconv.AppendUint(body, r.Arg, 10)
	case opRenew:
		path = "/renew"
		body = append(body, `{"lease":`...)
		body = strconv.AppendUint(body, r.Arg, 10)
		body = append(body, `,"hold_seconds":`...)
		body = strconv.AppendUint(body, renewHoldMillis/1000, 10)
	case opPlace:
		path = "/place"
		body = append(body, `{"replication":`...)
		body = strconv.AppendUint(body, replication, 10)
	case opClasses:
		method, path = "GET", "/classes"
	case opServer:
		method, path = "GET", "/servers/"
	default:
		panic("loadgen: unknown op kind")
	}
	if len(body) > 0 {
		body = append(body, '}')
	}
	dst = append(dst, method...)
	dst = append(dst, " /v1/"...)
	dst = append(dst, dc...)
	dst = append(dst, path...)
	if r.Kind == opServer {
		dst = strconv.AppendUint(dst, r.Arg, 10)
		dst = append(dst, "/class"...)
	}
	dst = append(dst, " HTTP/1.1\r\nHost: harvestd\r\n"...)
	if len(body) > 0 {
		dst = append(dst, "Content-Type: application/json\r\nContent-Length: "...)
		dst = strconv.AppendInt(dst, int64(len(body)), 10)
		dst = append(dst, "\r\n"...)
	}
	dst = append(dst, "\r\n"...)
	return append(dst, body...)
}

func (d *jsonDialect) readReply(br *bufio.Reader, rep *reply) error {
	rep.reset()
	status, body, err := readResponse(br, d.body[:0], rep)
	if err != nil {
		return err
	}
	d.body = body[:0]
	if rep.failed = status >= 400; rep.failed {
		return nil
	}
	if i := bytes.Index(body, leaseKey); i >= 0 {
		rep.lease, _ = scanUint(body[i+len(leaseKey):])
	}
	if i := bytes.Index(body, replicasKey); i >= 0 {
		for rest := body[i+len(replicasKey):]; ; {
			id, n := scanUint(rest)
			if n == 0 {
				break // ']' or anything else that is not a bare non-negative integer
			}
			rep.servers = append(rep.servers, int64(id))
			if rest = rest[n:]; len(rest) > 0 && rest[0] == ',' {
				rest = rest[1:]
			}
		}
	}
	return nil
}

var (
	leaseKey    = []byte(`"lease":`)
	replicasKey = []byte(`"replicas":[`)
)

// scanUint reads the decimal digits b starts with: the value and how many
// bytes it took (0 when b starts with no digit).
func scanUint(b []byte) (v uint64, n int) {
	for n < len(b) && b[n] >= '0' && b[n] <= '9' {
		v = v*10 + uint64(b[n]-'0')
		n++
	}
	return v, n
}

// maxResponseBody caps the Content-Length readResponse accepts — the router's
// maxProxyResponse. The header is input from outside the program: a larger or
// overflowing value is a broken peer, not a body to allocate.
const maxResponseBody = 8 << 20

var (
	statusPrefix  = []byte("HTTP/1.1 ")
	contentLenHdr = []byte("Content-Length: ")
	traceHdr      = []byte(obs.TraceHeader + ": ")
	backendHdr    = []byte("X-Harvest-Backend: ")
)

// readResponse parses one HTTP/1.1 response with an explicit Content-Length
// (the only kind harvestd and harvestrouter send, internal/httpjson) into
// body, growing it as needed, and returns the status code. Header lines are
// read with ReadSlice, so a reply allocates nothing once body has reached its
// steady-state size. An X-Harvest-Trace header of the expected width lands in
// rep.trace and an X-Harvest-Backend header in rep.backend.
func readResponse(br *bufio.Reader, body []byte, rep *reply) (int, []byte, error) {
	line, err := br.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, statusPrefix) {
		return 0, nil, fmt.Errorf("malformed status line %q", line)
	}
	status, n := scanUint(line[9:12])
	if n != 3 {
		return 0, nil, fmt.Errorf("malformed status in %q", line)
	}
	length := -1
	for {
		if line, err = br.ReadSlice('\n'); err != nil {
			return 0, nil, err
		}
		if len(line) == 2 && line[0] == '\r' {
			break
		}
		switch {
		case bytes.HasPrefix(line, contentLenHdr):
			digits := bytes.TrimSpace(line[len(contentLenHdr):])
			v, n := scanUint(digits)
			// Eight digits bound v below 10^8 before the cap is compared, so
			// no header can overflow the accumulator.
			if n == 0 || n != len(digits) || n > 8 || v > maxResponseBody {
				return 0, nil, fmt.Errorf("malformed or oversize Content-Length %q", line)
			}
			length = int(v)
		case bytes.HasPrefix(line, traceHdr):
			if v := bytes.TrimSpace(line[len(traceHdr):]); len(v) == len(rep.trace) {
				copy(rep.trace[:], v)
			}
		case bytes.HasPrefix(line, backendHdr):
			rep.backend = append(rep.backend[:0], bytes.TrimSpace(line[len(backendHdr):])...)
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
	return int(status), body, nil
}
