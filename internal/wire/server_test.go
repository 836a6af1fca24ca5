package wire

import (
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// stubListener hands Serve exactly what a test queues: a conn or an error per
// Accept. With lateConn set, the Accept that was blocked when Close arrived
// returns a conn anyway — the kernel had it ready — which is the window the
// contract's second clause covers.
type stubListener struct {
	accepts  chan any // net.Conn or error
	closed   chan struct{}
	once     sync.Once
	lateConn net.Conn
}

func newStubListener() *stubListener {
	return &stubListener{accepts: make(chan any, 4), closed: make(chan struct{})}
}

func (l *stubListener) Accept() (net.Conn, error) {
	select {
	case v := <-l.accepts:
		if err, ok := v.(error); ok {
			return nil, err
		}
		return v.(net.Conn), nil
	case <-l.closed:
		if c := l.lateConn; c != nil {
			l.lateConn = nil
			return c, nil
		}
		return nil, net.ErrClosed
	}
}

func (l *stubListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

func (l *stubListener) isClosed() bool {
	select {
	case <-l.closed:
		return true
	default:
		return false
	}
}

func (l *stubListener) Addr() net.Addr { return &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)} }

// waitFor polls cond until it holds: for counters that settle just after the
// event a test synchronised on.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// serveAsync runs Serve on a goroutine and returns the channel its result
// arrives on.
func serveAsync(s *Server, ln net.Listener, handle func(net.Conn)) <-chan error {
	done := make(chan error, 1)
	go func() { done <- s.Serve(ln, handle) }()
	return done
}

// readUntilClosed is a handler that lives exactly as long as its conn.
func readUntilClosed(c net.Conn) { io.Copy(io.Discard, c) }

func TestServerConnAcceptedDuringCloseIsClosedUnhandled(t *testing.T) {
	ln := newStubListener()
	peer, late := net.Pipe()
	defer peer.Close()
	ln.lateConn = late
	var s Server
	var handled atomic.Int32
	done := serveAsync(&s, ln, func(net.Conn) { handled.Add(1) })
	waitFor(t, "Serve to take the listener", s.Serving)

	start := time.Now()
	s.Close()
	if err := <-done; err != nil {
		t.Fatalf("Serve after Close = %v, want nil", err)
	}
	// The late conn was closed by the server: its peer reads EOF at once.
	peer.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := peer.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("peer of the late conn read %v, want io.EOF", err)
	}
	if n := handled.Load(); n != 0 {
		t.Fatalf("handler ran %d times for a conn accepted after Close", n)
	}
	if s.Accepted() != 0 || s.Open() != 0 {
		t.Fatalf("accepted/open = %d/%d, want 0/0", s.Accepted(), s.Open())
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("Close took %v", d)
	}
}

func TestServerCloseWaitsForHandlers(t *testing.T) {
	ln := newStubListener()
	peer, conn := net.Pipe()
	defer peer.Close()
	ln.accepts <- conn
	var s Server
	var finished atomic.Bool
	done := serveAsync(&s, ln, func(c net.Conn) {
		readUntilClosed(c)
		time.Sleep(50 * time.Millisecond) // a handler slow to notice
		finished.Store(true)
	})
	waitFor(t, "the handler to start", func() bool { return s.Open() == 1 })
	s.Close()
	if !finished.Load() {
		t.Fatal("Close returned before the handler did")
	}
	if err := <-done; err != nil {
		t.Fatalf("Serve = %v, want nil", err)
	}
	if s.Accepted() != 1 || s.Open() != 0 {
		t.Fatalf("accepted/open = %d/%d, want 1/0", s.Accepted(), s.Open())
	}
}

func TestServerCloseIsIdempotentAndNeedsNoServe(t *testing.T) {
	var s Server
	s.Close() // nothing serving
	s.Close()
	if s.Serving() {
		t.Fatal("Serving after Close")
	}
	// Serve on the closed server closes the listener it is handed.
	ln := newStubListener()
	if err := s.Serve(ln, readUntilClosed); err != nil {
		t.Fatalf("Serve on a closed server = %v, want nil", err)
	}
	if !ln.isClosed() {
		t.Fatal("Serve on a closed server left the listener open")
	}
}

func TestServerReturnsAcceptError(t *testing.T) {
	ln := newStubListener()
	emfile := errors.New("accept: too many open files")
	ln.accepts <- emfile
	var s Server
	if err := s.Serve(ln, readUntilClosed); !errors.Is(err, emfile) {
		t.Fatalf("Serve = %v, want the accept error", err)
	}
	if !ln.isClosed() {
		t.Fatal("Serve returned an accept error and left the listener open")
	}
	s.Close()
}

// TestServerHandleAdoptsConns: a connection handed to Handle lives under the
// accepted ones' contract — counted, closed by Close, waited for — and one
// handed over after Close is closed unhandled.
func TestServerHandleAdoptsConns(t *testing.T) {
	var s Server
	peer, conn := net.Pipe()
	defer peer.Close()
	returned := make(chan struct{})
	go func() {
		defer close(returned)
		s.Handle(conn, readUntilClosed)
	}()
	waitFor(t, "the handler to start", func() bool { return s.Open() == 1 })
	s.Close()
	select {
	case <-returned:
	default:
		t.Fatal("Close returned before Handle's handler did")
	}
	if s.Accepted() != 1 || s.Open() != 0 {
		t.Fatalf("accepted/open = %d/%d, want 1/0", s.Accepted(), s.Open())
	}

	late, lateConn := net.Pipe()
	defer late.Close()
	s.Handle(lateConn, func(net.Conn) { t.Error("handler ran for a conn handed over after Close") })
	late.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := late.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("peer of a conn handed over after Close read %v, want io.EOF", err)
	}
}

// TestServerCountersAndGoroutinesSettle drives real sockets: n clients
// connect, some hang up on their own, Close reaps the rest, and the process
// is left with the goroutines it started with.
func TestServerCountersAndGoroutinesSettle(t *testing.T) {
	baseline := runtime.NumGoroutine()
	const n = 8
	var s Server
	addr, errc, err := s.ListenAndServe("127.0.0.1:0", readUntilClosed)
	if err != nil {
		t.Fatal(err)
	}
	conns := make([]net.Conn, n)
	for i := range conns {
		if conns[i], err = net.Dial("tcp", addr.String()); err != nil {
			t.Fatal(err)
		}
		defer conns[i].Close()
	}
	waitFor(t, "every conn to be accepted", func() bool { return s.Accepted() == n && s.Open() == n })
	// A handler that returns closes and untracks its own conn.
	for _, c := range conns[:n/2] {
		c.Close()
	}
	waitFor(t, "hung-up conns to be dropped", func() bool { return s.Open() == n/2 })

	s.Close()
	if err := <-errc; err != nil {
		t.Fatalf("Serve = %v, want nil", err)
	}
	if s.Accepted() != n || s.Open() != 0 {
		t.Fatalf("accepted/open = %d/%d, want %d/0", s.Accepted(), s.Open(), n)
	}
	// The server closed the survivors.
	for _, c := range conns[n/2:] {
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := c.Read(make([]byte, 1)); err == nil {
			t.Fatal("a conn open at Close is still readable")
		}
	}
	if _, err := net.DialTimeout("tcp", addr.String(), time.Second); err == nil {
		t.Fatal("listener still accepting after Close")
	}
	waitFor(t, "goroutines to return to baseline", func() bool { return runtime.NumGoroutine() <= baseline })
}
