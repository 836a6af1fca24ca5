package main

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"

	"harvest/internal/wire"
)

// shadowFollower is a bench-owned replication peer: it dials a primary's
// replication listener exactly as a follower would (wire.AppendReplHello),
// then only measures what arrives — frame sizes, cadence, and how stale each
// frame is on receipt — without applying anything. It is the only way to see
// replication cost from outside the program.
type shadowFollower struct {
	nc   net.Conn
	done chan struct{}

	mu            sync.Mutex
	err           error
	snapshotBytes int       // payload+header bytes of the first OpReplSnap
	beats         int       // OpReplBeat frames received
	beatBytes     []float64 // size of each beat frame
	lagUs         []float64 // receive time − SentUnixNano, per beat
	steadyBytes   int64     // bytes received after the initial snapshot
	steadySince   time.Time // when the initial snapshot finished arriving
	lastBeat      []byte    // payload of the most recent beat, for decode timing
}

func dialShadow(addr string) (*shadowFollower, error) {
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("shadow follower dial %s: %w", addr, err)
	}
	hello := wire.ReplHello{FollowerID: "harvestbench-shadow"}
	nc.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := nc.Write(wire.AppendReplHello(nil, 1, &hello)); err != nil {
		nc.Close()
		return nil, fmt.Errorf("shadow follower hello: %w", err)
	}
	s := &shadowFollower{nc: nc, done: make(chan struct{})}
	br := bufio.NewReaderSize(nc, 256<<10)
	var scratch []byte
	h, _, err := wire.ReadFrame(br, &scratch)
	if err != nil || h.Op != wire.OpReplHelloResp {
		nc.Close()
		return nil, fmt.Errorf("shadow follower handshake: op %v, err %v", h.Op, err)
	}
	nc.SetDeadline(time.Time{})
	go s.read(br, scratch)
	return s, nil
}

func (s *shadowFollower) read(br *bufio.Reader, scratch []byte) {
	defer close(s.done)
	for {
		h, payload, err := wire.ReadFrame(br, &scratch)
		now := time.Now()
		if err != nil {
			s.mu.Lock()
			s.err = err
			s.mu.Unlock()
			return
		}
		size := wire.HeaderSize + len(payload)
		s.mu.Lock()
		switch h.Op {
		case wire.OpReplSnap, wire.OpReplDelta:
			if s.snapshotBytes == 0 {
				s.snapshotBytes = size
				s.steadySince = now
			} else {
				s.steadyBytes += int64(size)
			}
		case wire.OpReplBeat:
			// The beat's fixed prefix is DC, generation, then SentUnixNano.
			r := wire.NewReader(payload)
			r.Str8()
			r.U64()
			sent := r.I64()
			s.beats++
			s.beatBytes = append(s.beatBytes, float64(size))
			s.lagUs = append(s.lagUs, float64(now.UnixNano()-sent)/1e3)
			s.steadyBytes += int64(size)
			s.lastBeat = append(s.lastBeat[:0], payload...)
		}
		s.mu.Unlock()
	}
}

// reset forgets the beats seen so far, so a measurement can start at a phase
// boundary instead of at connect time.
func (s *shadowFollower) reset() {
	s.mu.Lock()
	s.beats, s.beatBytes, s.lagUs, s.steadyBytes, s.steadySince = 0, nil, nil, 0, time.Now()
	s.mu.Unlock()
}

// shadowStats is a shadow follower's measurement over one interval.
type shadowStats struct {
	snapshotBytes int
	beats         int
	beatBytes     float64 // median beat frame size
	lagUs         float64 // median receive lag
	kbPerS        float64 // steady-state bytes per second ÷ 1000
	beatsPerS     float64
	lastBeat      []byte
}

func (s *shadowFollower) stats() (shadowStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return shadowStats{}, fmt.Errorf("shadow follower stream broke: %w", s.err)
	}
	if s.beats == 0 {
		return shadowStats{}, fmt.Errorf("shadow follower saw no beats")
	}
	elapsed := time.Since(s.steadySince).Seconds()
	return shadowStats{
		snapshotBytes: s.snapshotBytes,
		beats:         s.beats,
		beatBytes:     median(s.beatBytes),
		lagUs:         median(s.lagUs),
		kbPerS:        float64(s.steadyBytes) / 1000 / elapsed,
		beatsPerS:     float64(s.beats) / elapsed,
		lastBeat:      append([]byte(nil), s.lastBeat...),
	}, nil
}

func (s *shadowFollower) close() {
	s.nc.Close()
	<-s.done
}
