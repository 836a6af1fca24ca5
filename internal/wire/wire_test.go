package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"
)

// readOne frames-then-reads a single buffer, the common test path.
func readOne(t *testing.T, frame []byte) (Header, []byte) {
	t.Helper()
	var scratch []byte
	h, payload, err := ReadFrame(bytes.NewReader(frame), &scratch)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	return h, payload
}

func TestHeaderRoundTrip(t *testing.T) {
	frame := AppendFrame(nil, OpSelect, 0xdeadbeefcafe, []byte("payload"))
	if len(frame) != HeaderSize+7 {
		t.Fatalf("frame length %d, want %d", len(frame), HeaderSize+7)
	}
	h, payload := readOne(t, frame)
	if h.Op != OpSelect || h.ID != 0xdeadbeefcafe || h.Len != 7 {
		t.Fatalf("header %+v", h)
	}
	if string(payload) != "payload" {
		t.Fatalf("payload %q", payload)
	}
}

func TestReadFrameRejectsGarbage(t *testing.T) {
	var scratch []byte
	cases := map[string][]byte{
		"json accident": []byte("POST /v1/DC-9/select HTTP/1.1\r\n"),
		"bad magic":     {0x00, Version, byte(OpSelect), 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
		"bad version":   {Magic, 99, byte(OpSelect), 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
		// Length field claims 2 MiB — past MaxPayload.
		"oversized": {Magic, Version, byte(OpSelect), 0, 0, 0, 0x20, 0, 0, 0, 0, 0, 0, 0, 0, 0},
	}
	for name, b := range cases {
		_, _, err := ReadFrame(bytes.NewReader(b), &scratch)
		if !errors.Is(err, ErrBadFrame) && !errors.Is(err, ErrBadVersion) {
			t.Errorf("%s: err = %v, want framing error", name, err)
		}
	}
	// A truncated but well-formed header: payload shorter than Len.
	frame := AppendFrame(nil, OpSelect, 1, []byte("abcdef"))
	_, _, err := ReadFrame(bytes.NewReader(frame[:len(frame)-2]), &scratch)
	if !errors.Is(err, ErrBadFrame) {
		t.Errorf("truncated payload: err = %v, want ErrBadFrame", err)
	}
	// Clean EOF before any byte is io.EOF (idle connection closed).
	_, _, err = ReadFrame(bytes.NewReader(nil), &scratch)
	if err != io.EOF {
		t.Errorf("empty stream: err = %v, want io.EOF", err)
	}
	// EOF mid-header is a framing error, not a clean close.
	_, _, err = ReadFrame(bytes.NewReader(frame[:4]), &scratch)
	if !errors.Is(err, ErrBadFrame) {
		t.Errorf("mid-header EOF: err = %v, want ErrBadFrame", err)
	}
}

// forgedReplHeader is what a hostile client sends a public port: a well-formed
// header claiming a replication snapshot of 2 MiB, legal under MaxReplPayload
// and past MaxPayload.
var forgedReplHeader = func() []byte {
	h := BeginFrame(nil, OpReplSnap, 7)
	h[6] = 0x20 // length field, little-endian: 0x00200000
	return h
}()

// zeros is an endless stream of zero bytes, for payloads not worth holding.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) { clear(p); return len(p), nil }

// frameHeader is a well-formed header claiming n payload bytes.
func frameHeader(op Op, id uint64, n uint32) []byte {
	h := BeginFrame(nil, op, id)
	binary.LittleEndian.PutUint32(h[4:8], n)
	return h
}

// TestReadFrameSizeRule pins the one reader's size rule: a public port refuses
// a replication opcode on its header alone, before buffering a byte of the
// payload the header promises; the replication reader takes the same frame
// into the next power of two that holds it, clamped to its own port's cap.
func TestReadFrameSizeRule(t *testing.T) {
	const claimed = 2 << 20
	replFrame := append(append([]byte(nil), forgedReplHeader...), make([]byte, claimed)...)
	tooBig := append([]byte(nil), forgedReplHeader...)
	tooBig[7] = 0x10 // 256 MiB: past MaxReplPayload too
	const nearCap = MaxReplPayload - 5
	nearCapHeader := frameHeader(OpReplSnap, 7, nearCap)
	for _, tc := range []struct {
		name   string
		public bool
		in     []byte
		want   error
		maxCap int   // bound on the scratch afterwards; what it is, for a frame that was read
		zeros  int64 // payload bytes streamed after in
	}{
		{"public port, replication header", true, forgedReplHeader, ErrBadFrame, 4096, 0},
		{"public port, replication frame", true, replFrame, ErrBadFrame, 4096, 0},
		{"replication port, same frame", false, replFrame, nil, 4 << 20, 0},
		{"replication port, frame just under its cap", false, nearCapHeader, nil, HeaderSize + MaxReplPayload, nearCap},
		{"replication port, past its own cap", false, tooBig, ErrBadFrame, 4096, 0},
	} {
		var scratch []byte
		src := io.MultiReader(bytes.NewReader(tc.in), io.LimitReader(zeros{}, tc.zeros))
		h, raw, err := ReadRawFrame(src, &scratch, tc.public)
		if err != tc.want {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
		if cap(scratch) > tc.maxCap {
			t.Errorf("%s: scratch grew to %d bytes, want at most %d", tc.name, cap(scratch), tc.maxCap)
		}
		if err == nil && (h.Op != OpReplSnap || h.ID != 7 || len(raw) != len(tc.in)+int(tc.zeros) || cap(scratch) != tc.maxCap) {
			t.Errorf("%s: header %+v, %d raw bytes in a scratch of %d, want one of %d", tc.name, h, len(raw), cap(scratch), tc.maxCap)
		}
	}
	// ReadFrame is the replication-capable reader, minus the header.
	var scratch []byte
	h, payload, err := ReadFrame(bytes.NewReader(replFrame), &scratch)
	if err != nil || h.Op != OpReplSnap || len(payload) != claimed {
		t.Fatalf("ReadFrame: header %+v, %d payload bytes, err %v", h, len(payload), err)
	}
}

func TestReaderStickyError(t *testing.T) {
	r := NewReader([]byte{1, 2})
	if got := r.U16(); got != 0x0201 {
		t.Fatalf("U16 = %#x", got)
	}
	if r.U64() != 0 || r.Err() == nil {
		t.Fatal("over-read did not stick")
	}
	if r.U8() != 0 {
		t.Fatal("reads after error must return zero")
	}
	if r.Done() == nil {
		t.Fatal("Done must fail after over-read")
	}
	// Trailing bytes fail Done but not Err.
	r = NewReader([]byte{1, 2, 3})
	_ = r.U16()
	if r.Err() != nil {
		t.Fatal("no over-read happened")
	}
	if r.Done() == nil {
		t.Fatal("Done must fail on trailing bytes")
	}
}

func TestMessageRoundTrips(t *testing.T) {
	sel := SelectReq{Job: JobFromLastRun, Flags: SelectFlagDryRun, MaxCores: 3.5, LastRunSeconds: 42.25, HoldMillis: 9000}
	h, p := readOne(t, AppendSelectReq(nil, 7, "DC-9", sel))
	var selOut SelectReq
	if err := selOut.Decode(p); err != nil {
		t.Fatalf("SelectReq.Decode: %v", err)
	}
	sel.DC = []byte("DC-9")
	if h.Op != OpSelect || h.ID != 7 || !reflect.DeepEqual(sel, selOut) {
		t.Fatalf("select round trip: %+v vs %+v", sel, selOut)
	}

	sresp := SelectResp{
		Generation: 3, Lease: 0x1122334455667788, ExpiresIn: 59.5, Job: JobLong, Satisfiable: true,
		Classes: []SelectGrant{{Class: 4, Headroom: 12.5, Granted: 3.25}, {Class: 9, Headroom: 0.5, Granted: 0}},
	}
	_, p = readOne(t, AppendSelectResp(nil, 8, &sresp))
	var srespOut SelectResp
	if err := srespOut.Decode(p); err != nil {
		t.Fatalf("SelectResp.Decode: %v", err)
	}
	if !reflect.DeepEqual(sresp, srespOut) {
		t.Fatalf("select resp round trip: %+v vs %+v", sresp, srespOut)
	}

	_, p = readOne(t, AppendReleaseReq(nil, 9, "DC-10", 555))
	var rel ReleaseReq
	if err := rel.Decode(p); err != nil || string(rel.DC) != "DC-10" || rel.Lease != 555 {
		t.Fatalf("release req round trip: %+v err %v", rel, err)
	}

	rresp := ReleaseResp{Lease: 555, TotalMillis: 4500, Grants: []ReleaseGrant{{Class: 1, Millis: 4000}, {Class: 2, Millis: 500}}}
	_, p = readOne(t, AppendReleaseResp(nil, 10, &rresp))
	var rrespOut ReleaseResp
	if err := rrespOut.Decode(p); err != nil || !reflect.DeepEqual(rresp, rrespOut) {
		t.Fatalf("release resp round trip: %+v err %v", rrespOut, err)
	}

	preq := PlaceReq{Replication: 3, Flags: PlaceFlagRelaxed, Writer: -1}
	_, p = readOne(t, AppendPlaceReq(nil, 11, "DC-9", preq))
	var preqOut PlaceReq
	if err := preqOut.Decode(p); err != nil {
		t.Fatalf("PlaceReq.Decode: %v", err)
	}
	preq.DC = []byte("DC-9")
	if !reflect.DeepEqual(preq, preqOut) {
		t.Fatalf("place req round trip: %+v vs %+v", preq, preqOut)
	}

	presp := PlaceResp{Generation: 12, Replicas: []int64{5, -1, 900}}
	_, p = readOne(t, AppendPlaceResp(nil, 12, &presp))
	var prespOut PlaceResp
	if err := prespOut.Decode(p); err != nil || !reflect.DeepEqual(presp, prespOut) {
		t.Fatalf("place resp round trip: %+v err %v", prespOut, err)
	}

	cresp := ClassesResp{Generation: 2, AsOfSeconds: 1234.5, Classes: []ClassRec{
		{ID: 0, Pattern: 1, NumTenants: 30, NumServers: 120, Avg: 0.4, Peak: 0.9, Current: 0.5, AllocMillis: 2500, ExampleServer: 17},
		{ID: 1, Pattern: 0, ExampleServer: -1},
	}}
	_, p = readOne(t, AppendClassesResp(nil, 13, &cresp))
	var crespOut ClassesResp
	if err := crespOut.Decode(p); err != nil || !reflect.DeepEqual(cresp, crespOut) {
		t.Fatalf("classes resp round trip: %+v err %v", crespOut, err)
	}

	scresp := ServerClassResp{Generation: 2, Server: 17, Class: cresp.Classes[0]}
	_, p = readOne(t, AppendServerClassResp(nil, 14, &scresp))
	var screspOut ServerClassResp
	if err := screspOut.Decode(p); err != nil || !reflect.DeepEqual(scresp, screspOut) {
		t.Fatalf("server class resp round trip: %+v err %v", screspOut, err)
	}

	rnreq := RenewReq{Lease: 777, HoldMillis: 30000}
	h, p = readOne(t, AppendRenewReq(nil, 16, "DC-3", rnreq))
	var rnreqOut RenewReq
	if err := rnreqOut.Decode(p); err != nil {
		t.Fatalf("RenewReq.Decode: %v", err)
	}
	rnreq.DC = []byte("DC-3")
	if h.Op != OpRenew || h.ID != 16 || !reflect.DeepEqual(rnreq, rnreqOut) {
		t.Fatalf("renew req round trip: %+v vs %+v", rnreq, rnreqOut)
	}

	rnresp := RenewResp{Lease: 777, TotalMillis: 2500, ExpiresIn: 29.75}
	_, p = readOne(t, AppendRenewResp(nil, 17, &rnresp))
	var rnrespOut RenewResp
	if err := rnrespOut.Decode(p); err != nil || !reflect.DeepEqual(rnresp, rnrespOut) {
		t.Fatalf("renew resp round trip: %+v err %v", rnrespOut, err)
	}

	_, p = readOne(t, AppendErrorResp(nil, 15, 404, "unknown datacenter"))
	var eresp ErrorResp
	if err := eresp.Decode(p); err != nil || eresp.Code != 404 || string(eresp.Message) != "unknown datacenter" {
		t.Fatalf("error resp round trip: %+v err %v", eresp, err)
	}
}

func TestLyingCountRejected(t *testing.T) {
	// A select response whose count field claims 65535 grants over an empty
	// payload tail must fail decode without a giant allocation or panic.
	frame := AppendSelectResp(nil, 1, &SelectResp{Satisfiable: true})
	// Patch the count field (last two payload bytes).
	frame[len(frame)-2] = 0xff
	frame[len(frame)-1] = 0xff
	_, p := readOne(t, frame)
	var out SelectResp
	if err := out.Decode(p); err == nil {
		t.Fatal("decode accepted a lying count field")
	}
}

func TestPeekDC(t *testing.T) {
	frame := AppendClassesReq(nil, 1, "DC-9")
	_, p := readOne(t, frame)
	dc, ok := PeekDC(p)
	if !ok || string(dc) != "DC-9" {
		t.Fatalf("PeekDC = %q, %v", dc, ok)
	}
	if _, ok := PeekDC(nil); ok {
		t.Fatal("PeekDC accepted empty payload")
	}
	if _, ok := PeekDC([]byte{10, 'x'}); ok {
		t.Fatal("PeekDC accepted truncated name")
	}
}

func TestEndFrameNesting(t *testing.T) {
	// Multiple frames appended to one buffer (the pipelined response path)
	// must each get the right back-patched length.
	var buf []byte
	buf = AppendReleaseReq(buf, 1, "DC-1", 10)
	buf = AppendClassesReq(buf, 2, "DC-2")
	r := bytes.NewReader(buf)
	var scratch []byte
	h1, _, err := ReadFrame(r, &scratch)
	if err != nil || h1.ID != 1 || h1.Op != OpRelease {
		t.Fatalf("frame 1: %+v err %v", h1, err)
	}
	h2, p2, err := ReadFrame(r, &scratch)
	if err != nil || h2.ID != 2 || h2.Op != OpClasses {
		t.Fatalf("frame 2: %+v err %v", h2, err)
	}
	if dc, _ := PeekDC(p2); string(dc) != "DC-2" {
		t.Fatalf("frame 2 dc %q", dc)
	}
}

// FuzzWireFrameRoundTrip feeds arbitrary bytes through the frame reader, in
// each of its three spellings, and every message decoder: nothing may panic or
// over-read, the spellings must agree except on the replication opcodes a
// public port refuses (and there the public scratch stays bounded), a frame
// that reads back must round-trip byte-identically, and ReadFrame must consume
// exactly the frame it reports.
func FuzzWireFrameRoundTrip(f *testing.F) {
	f.Add(AppendSelectReq(nil, 1, "DC-9", SelectReq{Job: JobShort, MaxCores: 2, HoldMillis: 1000}))
	f.Add(AppendSelectResp(nil, 2, &SelectResp{Generation: 1, Lease: 99, Satisfiable: true,
		Classes: []SelectGrant{{Class: 1, Headroom: 2, Granted: 1}}}))
	f.Add(AppendReleaseReq(nil, 3, "DC-9", 42))
	f.Add(AppendReleaseResp(nil, 4, &ReleaseResp{Lease: 42, TotalMillis: 1000, Grants: []ReleaseGrant{{Class: 0, Millis: 1000}}}))
	f.Add(AppendPlaceReq(nil, 5, "DC-9", PlaceReq{Replication: 3, Writer: -1}))
	f.Add(AppendPlaceResp(nil, 6, &PlaceResp{Generation: 1, Replicas: []int64{1, 2, 3}}))
	f.Add(AppendClassesReq(nil, 7, "DC-9"))
	f.Add(AppendClassesResp(nil, 8, &ClassesResp{Generation: 1, Classes: []ClassRec{{ID: 1, ExampleServer: -1}}}))
	f.Add(AppendServerClassReq(nil, 9, "DC-9", 17))
	f.Add(AppendRenewReq(nil, 11, "DC-9", RenewReq{Lease: 42, HoldMillis: 60000}))
	f.Add(AppendRenewResp(nil, 12, &RenewResp{Lease: 42, TotalMillis: 1000, ExpiresIn: 60}))
	f.Add(AppendErrorResp(nil, 10, 500, "boom"))
	snap, beat := replSnapshotFixture(), replEdgeBeat()
	f.Add(AppendReplSnapshot(nil, 13, &snap))
	f.Add(AppendReplBeat(nil, 14, &beat))
	f.Add([]byte("GET /v1/datacenters HTTP/1.1\r\n\r\n"))
	f.Add([]byte{Magic, Version, 0x01, 0, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0, 0, 0, 0})
	whole := AppendReleaseReq(nil, 15, "DC-9", 42)
	f.Add(whole[:4])            // truncated header
	f.Add(whole[:len(whole)-3]) // truncated payload
	f.Add(forgedReplHeader)

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		var scratch []byte
		h, payload, err := ReadFrame(r, &scratch)
		for _, public := range []bool{false, true} {
			var rawScratch []byte
			rh, raw, rerr := ReadRawFrame(bytes.NewReader(data), &rawScratch, public)
			if public && cap(rawScratch) > HeaderSize+MaxPayload {
				t.Fatalf("public reader grew its scratch to %d bytes", cap(rawScratch))
			}
			if public && err == nil && h.Op.IsRepl() {
				if rerr != ErrBadFrame {
					t.Fatalf("public reader took %v: err %v", h.Op, rerr)
				}
				continue
			}
			if rerr != err || rh != h {
				t.Fatalf("raw reader (public=%v): header %+v err %v, ReadFrame %+v err %v", public, rh, rerr, h, err)
			}
			if err == nil && !(bytes.Equal(raw[:HeaderSize], data[:HeaderSize]) && bytes.Equal(raw[HeaderSize:], payload)) {
				t.Fatalf("raw reader (public=%v): frame %x, ReadFrame payload %x", public, raw, payload)
			}
		}
		if err != nil {
			return // rejected without panic: the property we are after
		}
		if int(h.Len) != len(payload) {
			t.Fatalf("header len %d != payload %d", h.Len, len(payload))
		}
		// ReadFrame must consume exactly header+payload, no over-read.
		consumed := len(data) - r.Len()
		if consumed != HeaderSize+len(payload) {
			t.Fatalf("consumed %d bytes, want %d", consumed, HeaderSize+len(payload))
		}
		// Re-encoding the parsed frame must reproduce the consumed bytes.
		again := AppendFrame(nil, h.Op, h.ID, payload)
		// The flags byte is carried through frames but not re-encoded by
		// AppendFrame (version 1 defines no flags); patch it for comparison.
		again[3] = h.Flags
		if !bytes.Equal(again, data[:consumed]) {
			t.Fatalf("re-encode mismatch:\n got %x\nwant %x", again, data[:consumed])
		}
		// Every typed decoder must reject or cleanly parse arbitrary
		// payloads; a successful parse must re-encode to the identical
		// payload (encode→decode→encode fixed point).
		checkDecoders(t, h, payload)
	})
}

func checkDecoders(t *testing.T, h Header, payload []byte) {
	var sreq SelectReq
	if sreq.Decode(payload) == nil {
		if got := AppendSelectReq(nil, h.ID, string(sreq.DC), sreq); !bytes.Equal(got[HeaderSize:], payload) {
			t.Fatalf("SelectReq not a fixed point")
		}
	}
	var sresp SelectResp
	if sresp.Decode(payload) == nil {
		if got := AppendSelectResp(nil, h.ID, &sresp); !bytes.Equal(got[HeaderSize:], payload) {
			t.Fatalf("SelectResp not a fixed point")
		}
	}
	var rreq ReleaseReq
	if rreq.Decode(payload) == nil {
		if got := AppendReleaseReq(nil, h.ID, string(rreq.DC), rreq.Lease); !bytes.Equal(got[HeaderSize:], payload) {
			t.Fatalf("ReleaseReq not a fixed point")
		}
	}
	var rresp ReleaseResp
	if rresp.Decode(payload) == nil {
		if got := AppendReleaseResp(nil, h.ID, &rresp); !bytes.Equal(got[HeaderSize:], payload) {
			t.Fatalf("ReleaseResp not a fixed point")
		}
	}
	var rnreq RenewReq
	if rnreq.Decode(payload) == nil {
		if got := AppendRenewReq(nil, h.ID, string(rnreq.DC), rnreq); !bytes.Equal(got[HeaderSize:], payload) {
			t.Fatalf("RenewReq not a fixed point")
		}
	}
	var rnresp RenewResp
	if rnresp.Decode(payload) == nil {
		if got := AppendRenewResp(nil, h.ID, &rnresp); !bytes.Equal(got[HeaderSize:], payload) {
			t.Fatalf("RenewResp not a fixed point")
		}
	}
	var preq PlaceReq
	if preq.Decode(payload) == nil {
		if got := AppendPlaceReq(nil, h.ID, string(preq.DC), preq); !bytes.Equal(got[HeaderSize:], payload) {
			t.Fatalf("PlaceReq not a fixed point")
		}
	}
	var presp PlaceResp
	if presp.Decode(payload) == nil {
		if got := AppendPlaceResp(nil, h.ID, &presp); !bytes.Equal(got[HeaderSize:], payload) {
			t.Fatalf("PlaceResp not a fixed point")
		}
	}
	var creq ClassesReq
	if creq.Decode(payload) == nil {
		if got := AppendClassesReq(nil, h.ID, string(creq.DC)); !bytes.Equal(got[HeaderSize:], payload) {
			t.Fatalf("ClassesReq not a fixed point")
		}
	}
	var cresp ClassesResp
	if cresp.Decode(payload) == nil {
		if got := AppendClassesResp(nil, h.ID, &cresp); !bytes.Equal(got[HeaderSize:], payload) {
			t.Fatalf("ClassesResp not a fixed point")
		}
	}
	var screq ServerClassReq
	if screq.Decode(payload) == nil {
		if got := AppendServerClassReq(nil, h.ID, string(screq.DC), screq.Server); !bytes.Equal(got[HeaderSize:], payload) {
			t.Fatalf("ServerClassReq not a fixed point")
		}
	}
	var scresp ServerClassResp
	if scresp.Decode(payload) == nil {
		if got := AppendServerClassResp(nil, h.ID, &scresp); !bytes.Equal(got[HeaderSize:], payload) {
			t.Fatalf("ServerClassResp not a fixed point")
		}
	}
	var beat ReplBeat
	if beat.Decode(payload) == nil {
		if got := AppendReplBeat(nil, h.ID, &beat); !bytes.Equal(got[HeaderSize:], payload) {
			t.Fatalf("ReplBeat not a fixed point")
		}
	}
	var snap ReplSnapshot
	if snap.Decode(payload) == nil {
		// All but the reserved PrevGeneration word, which is read and dropped.
		got, at := AppendReplSnapshot(nil, h.ID, &snap)[HeaderSize:], 1+len(snap.DC)+8
		if !bytes.Equal(got[:at], payload[:at]) || !bytes.Equal(got[at+8:], payload[at+8:]) {
			t.Fatalf("ReplSnapshot not a fixed point")
		}
	}
	var eresp ErrorResp
	if eresp.Decode(payload) == nil {
		if got := AppendErrorResp(nil, h.ID, eresp.Code, string(eresp.Message)); !bytes.Equal(got[HeaderSize:], payload) {
			t.Fatalf("ErrorResp not a fixed point")
		}
	}
}

func TestF64NaNRoundTrip(t *testing.T) {
	// NaN payloads must survive the float64 bit round trip — the decoders
	// pass bits through, and semantic validation is the server's job.
	nan := math.Float64frombits(0x7ff8000000000001)
	b := AppendF64(nil, nan)
	r := NewReader(b)
	if got := math.Float64bits(r.F64()); got != 0x7ff8000000000001 {
		t.Fatalf("NaN bits %#x", got)
	}
}
