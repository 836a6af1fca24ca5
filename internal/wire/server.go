package wire

import (
	"net"
	"sync"
	"sync/atomic"
)

// Server is the accept side of every frame listener: harvestd's binary
// server, its replication listener and the router's binary front each hold one
// and hand it their per-connection handler; the router's upgraded
// registration connections arrive through Handle. It owns the listener, the closed
// flag, the set of open connections and the handlers' WaitGroup, under one
// contract:
//
//   - Serve returns nil once Close has begun, and the Accept error otherwise;
//     either way the listener is closed when it returns. Serve on a closed
//     Server closes the listener and returns nil.
//   - A connection accepted after Close began is closed and its handler never
//     runs.
//   - When a handler returns, its connection is closed and forgotten.
//   - Close is idempotent and safe with nothing serving. It closes the
//     listener and every open connection, and returns only when every handler
//     has returned — so a handler must return once its connection is closed.
//
// The zero value is ready to use; a Server serves one listener.
type Server struct {
	mu     sync.Mutex
	ln     net.Listener
	closed bool
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup

	accepted atomic.Uint64
	open     atomic.Int64
}

// Serve accepts connections on ln, running handle on a goroutine for each,
// until Close or an Accept error. It blocks like http.Serve.
func (s *Server) Serve(ln net.Listener, handle func(net.Conn)) error {
	defer ln.Close()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		if !s.track(c) {
			return nil
		}
		go func() {
			defer s.drop(c)
			handle(c)
		}()
	}
}

// Handle runs handle on c, a connection that reached the server some other
// way than a listener — an HTTP upgrade — under the contract an accepted one
// has, and returns when handle does. Once Close has begun it closes c and
// returns at once.
func (s *Server) Handle(c net.Conn, handle func(net.Conn)) {
	if !s.track(c) {
		return
	}
	defer s.drop(c)
	handle(c)
}

// track adds c to the open connections, or closes it and reports false once
// Close has begun.
func (s *Server) track(c net.Conn) bool {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		c.Close()
		return false
	}
	if s.conns == nil {
		s.conns = make(map[net.Conn]struct{})
	}
	s.conns[c] = struct{}{}
	// Under mu: ordered before the Wait of a Close that has not begun.
	s.wg.Add(1)
	s.mu.Unlock()
	s.accepted.Add(1)
	s.open.Add(1)
	return true
}

func (s *Server) drop(c net.Conn) {
	c.Close()
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	s.open.Add(-1)
	s.wg.Done()
}

// Close stops accepting, closes every open connection and waits for their
// handlers.
func (s *Server) Close() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		if s.ln != nil {
			s.ln.Close()
		}
		for c := range s.conns {
			c.Close()
		}
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// ListenAndServe binds a TCP addr and serves it on a goroutine. The returned
// channel yields what Serve returned: nil after Close, the Accept error that
// killed the loop otherwise.
func (s *Server) ListenAndServe(addr string, handle func(net.Conn)) (net.Addr, <-chan error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	errc := make(chan error, 1)
	go func() { errc <- s.Serve(ln, handle) }()
	return ln.Addr(), errc, nil
}

// Serving reports whether a listener is being accepted on: Serve has been
// called and neither Close nor an Accept error has ended it.
func (s *Server) Serving() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ln != nil && !s.closed
}

// Accepted counts the connections handed to a handler so far.
func (s *Server) Accepted() uint64 { return s.accepted.Load() }

// Open counts the connections whose handler has not returned.
func (s *Server) Open() int64 { return s.open.Load() }
