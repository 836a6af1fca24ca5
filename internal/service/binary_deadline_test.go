package service

import (
	"io"
	"os"
	"testing"
	"time"

	"harvest/internal/experiments"
	"harvest/internal/wire"
)

// clockConn is a fakeConn on a simulated clock. Every Read waits idle before
// its chunk arrives, which moves the clock on, and a Read or Write after the
// deadline last armed for it fails as a socket's would; a deadline never
// armed counts as passed. A deadline is armed against the real clock, so it
// is carried onto the simulated one by the time simulated so far.
type clockConn struct {
	fakeConn
	chunks  [][]byte
	idle    time.Duration
	skew    time.Duration
	readBy  time.Time
	writeBy time.Time
}

func (c *clockConn) now() time.Time { return time.Now().Add(c.skew) }

func (c *clockConn) SetReadDeadline(t time.Time) error  { c.readBy = t.Add(c.skew); return nil }
func (c *clockConn) SetWriteDeadline(t time.Time) error { c.writeBy = t.Add(c.skew); return nil }

func (c *clockConn) Read(p []byte) (int, error) {
	if len(c.chunks) == 0 {
		return 0, io.EOF
	}
	c.skew += c.idle
	if c.now().After(c.readBy) {
		return 0, os.ErrDeadlineExceeded
	}
	n := copy(p, c.chunks[0])
	if c.chunks[0] = c.chunks[0][n:]; len(c.chunks[0]) == 0 {
		c.chunks = c.chunks[1:]
	}
	return n, nil
}

func (c *clockConn) Write(p []byte) (int, error) {
	if c.now().After(c.writeBy) {
		return 0, os.ErrDeadlineExceeded
	}
	return c.fakeConn.Write(p)
}

// A client that idles well inside the idle timeout between segments, none of
// which ends on a frame boundary, is served in full: the replies flushed by
// each refill, and every refill itself, run on a deadline armed just before
// that socket operation, not at the last frame boundary.
func TestBinaryConnArmsDeadlinesPerSocketOperation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Datacenters = []string{"DC-9"}
	cfg.Scale = experiments.Scale{Datacenter: 0.05, Seed: 1}
	cfg.RefreshPeriod = 0
	svc, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer svc.Close()
	b := NewBinaryServer(svc)

	const frames = 4
	var stream []byte
	for id := uint64(1); id <= frames; id++ {
		stream = wire.AppendClassesReq(stream, id, "DC-9")
	}
	// Cut halfway through every frame: each segment after the first ends
	// mid-frame, so the loop never sits at a frame boundary when it reads.
	half := len(stream) / frames / 2
	fc := &clockConn{idle: binaryWriteTimeout + binaryIdleTimeout/4}
	for at := 0; at < len(stream); {
		end := min(at+2*half, len(stream))
		if at == 0 {
			end = half
		}
		fc.chunks = append(fc.chunks, stream[at:end])
		at = end
	}
	if total := time.Duration(len(fc.chunks)) * fc.idle; total <= binaryIdleTimeout {
		t.Fatalf("the script idles %v in all, within one idle timeout", total)
	}

	var in []byte
	b.serveConn(fc, &in)

	if !fc.closed {
		t.Fatal("the server returned without closing the connection")
	}
	out := []byte(fc.written())
	for id := uint64(1); id <= frames; id++ {
		h, err := wire.ParseHeader(out)
		if err != nil || len(out) < wire.HeaderSize+int(h.Len) {
			t.Fatalf("reply %d of %d missing (%v, %d bytes left): a socket operation ran on a stale deadline", id, frames, err, len(out))
		}
		if h.ID != id || h.Op != wire.OpClasses|wire.RespBit {
			t.Fatalf("reply %d: %v id %d", id, h.Op, h.ID)
		}
		out = out[wire.HeaderSize+int(h.Len):]
	}
	if len(out) != 0 {
		t.Fatalf("%d bytes written past the %d replies", len(out), frames)
	}
}
