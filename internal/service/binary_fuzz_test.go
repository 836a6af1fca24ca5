package service

import (
	"encoding/binary"
	"testing"

	"harvest/internal/experiments"
	"harvest/internal/wire"
)

// FuzzBinaryConn writes arbitrary bytes to a served binary connection. The
// server must not panic; it answers every whole request frame ahead of the
// first framing violation, in order, and then closes; and its read scratch
// never outgrows the public port's cap.
func FuzzBinaryConn(f *testing.F) {
	var burst []byte
	burst = wire.AppendClassesReq(burst, 1, "DC-9")
	burst = wire.AppendSelectReq(burst, 2, "DC-9", wire.SelectReq{Job: wire.JobShort, MaxCores: 2})
	burst = wire.AppendReleaseReq(burst, 3, "DC-9", 1)
	burst = wire.AppendPlaceReq(burst, 4, "DC-9", wire.PlaceReq{Replication: 3, Writer: -1})
	burst = wire.AppendServerClassReq(burst, 5, "DC-404", 0)
	// Headers alone: the largest public payload, and a replication snapshot.
	claimsMax := wire.BeginFrame(nil, wire.OpClasses, 6)
	binary.LittleEndian.PutUint32(claimsMax[4:8], wire.MaxPayload)
	forgedRepl := wire.BeginFrame(nil, wire.OpReplSnap, 7)
	binary.LittleEndian.PutUint32(forgedRepl[4:8], 2*wire.MaxPayload)
	for _, seed := range [][]byte{
		nil,
		burst,
		append(append([]byte(nil), burst...), "POST / HTTP/1.1\r\n\r\n"...),
		append(append([]byte(nil), burst...), forgedRepl...),
		append(append([]byte(nil), burst...), claimsMax...),
		burst[:len(burst)-3],
		wire.AppendClassesReq(nil, 8, "DC-9")[:wire.HeaderSize-1],
	} {
		f.Add(seed)
	}

	cfg := DefaultConfig()
	cfg.Datacenters = []string{"DC-9"}
	cfg.Scale = experiments.Scale{Datacenter: 0.05, Seed: 1}
	cfg.RefreshPeriod = 0
	svc, err := New(cfg)
	if err != nil {
		f.Fatalf("New: %v", err)
	}
	f.Cleanup(svc.Close)
	b := NewBinaryServer(svc)

	f.Fuzz(func(t *testing.T, stream []byte) {
		// The whole request frames ahead of the first violation, by their own
		// headers.
		var want []wire.Header
		for rest := stream; len(rest) >= wire.HeaderSize; {
			h, err := wire.ParseHeader(rest[:wire.HeaderSize])
			if err != nil || h.Op.IsRepl() || len(rest) < wire.HeaderSize+int(h.Len) {
				break
			}
			want = append(want, h)
			rest = rest[wire.HeaderSize+int(h.Len):]
		}

		fc := &fakeConn{}
		fc.readData.Write(stream)
		var in []byte
		b.serveConn(fc, &in)

		if !fc.closed {
			t.Fatal("the server returned without closing the connection")
		}
		if cap(in) > wire.HeaderSize+wire.MaxPayload {
			t.Fatalf("read scratch grew to %d bytes, past the port's %d", cap(in), wire.HeaderSize+wire.MaxPayload)
		}
		out := []byte(fc.written())
		for i, req := range want {
			h, err := wire.ParseHeader(out)
			if err != nil || len(out) < wire.HeaderSize+int(h.Len) {
				t.Fatalf("reply %d of %d: %v, %d bytes left", i+1, len(want), err, len(out))
			}
			if h.ID != req.ID || (h.Op != wire.OpError && h.Op != req.Op|wire.RespBit) {
				t.Fatalf("reply %d to %v id %d: %v id %d", i+1, req.Op, req.ID, h.Op, h.ID)
			}
			out = out[wire.HeaderSize+int(h.Len):]
		}
		if len(out) != 0 {
			t.Fatalf("%d bytes written past the replies to %d whole frames", len(out), len(want))
		}
	})
}
