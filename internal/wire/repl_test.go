package wire

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"
)

func parsePayload(t *testing.T, frame []byte, wantOp Op) []byte {
	t.Helper()
	h, err := ParseHeader(frame[:HeaderSize])
	if err != nil {
		t.Fatalf("ParseHeader: %v", err)
	}
	if h.Op != wantOp {
		t.Fatalf("op = %v, want %v", h.Op, wantOp)
	}
	if int(h.Len) != len(frame)-HeaderSize {
		t.Fatalf("length field %d, frame payload %d", h.Len, len(frame)-HeaderSize)
	}
	return frame[HeaderSize:]
}

func TestReplHelloRoundTrip(t *testing.T) {
	in := ReplHello{
		FollowerID: "follower-2",
		DCs:        []ReplDCGen{{DC: "DC-9", Generation: 17}, {DC: "DC-3", Generation: 1}},
	}
	frame := AppendReplHello(nil, 42, &in)
	var out ReplHello
	if err := out.Decode(parsePayload(t, frame, OpReplHello)); err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in  %+v\n out %+v", in, out)
	}

	resp := ReplHelloResp{PrimaryID: "primary-1"}
	frame = AppendReplHelloResp(nil, 42, &resp)
	var respOut ReplHelloResp
	if err := respOut.Decode(parsePayload(t, frame, OpReplHelloResp)); err != nil {
		t.Fatalf("Decode resp: %v", err)
	}
	if respOut != resp {
		t.Fatalf("resp round trip mismatch: %+v vs %+v", resp, respOut)
	}
}

func replSnapshotFixture() ReplSnapshot {
	return ReplSnapshot{
		DC:              "DC-9",
		Generation:      8,
		SentUnixNano:    1_700_000_000_000_000_123,
		AsOfSeconds:     3600.5,
		BuiltAtUnixNano: 1_700_000_000_000_000_000,
		Classes: []ReplClass{
			{
				ID: 0, Pattern: 1, Avg: 0.31, Peak: 0.83, Current: 0.44,
				Centroid: []float64{0.1, 0.2, 0.3},
				Tenants:  []int64{5, 9},
				Servers:  []int64{100, 101, 102},
			},
			{
				ID: 1, Pattern: 0, Avg: 0.6, Peak: 0.9, Current: 0.61,
				Centroid: []float64{0.9},
				Servers:  []int64{7},
			},
		},
		Ledger: ReplLedger{
			Generation:     8,
			ReservedMillis: 5000, ReleasedMillis: 1500, ExpiredMillis: 500,
			Reserves: 4, Releases: 1, Renews: 2, Expiries: 1, Conflicts: 3,
			Leases: []ReplLease{
				{
					ID: 0x1234, ExpiresAt: time.Unix(0, 1_700_000_060_000_000_000),
					JobID: "job-a", Owner: "alice",
					Grants: []ReplGrant{{Class: 0, Millis: 2000}, {Class: 1, Millis: 1000}},
				},
			},
		},
		Blocks: ReplBlocks{
			Generation: 8, Lost: 3, Replaced: 2, Creates: 5, Reimages: 1,
			Blocks: []ReplBlock{
				{ID: 0x77, EnvStrict: true, Replicas: []ReplBlockReplica{{Server: 100, Placed: true}, {Server: 101}}},
			},
		},
	}
}

// replEdgeBeat is a beat whose two sections hold the values a codec is most
// likely to get wrong — the ones the service's three-encoder property test
// (TestStreamedFilesDecodeAsExportedState) draws at random, fixed here so the
// round-trip test and the fuzzer's seed corpus replay them on every run.
func replEdgeBeat() ReplBeat {
	return ReplBeat{
		DC: "DC-9", Generation: 8, SentUnixNano: 55, AsOfSeconds: 120,
		Ledger: ReplLedger{
			Generation: 8, ReservedMillis: 1 << 40, ForfeitedMillis: 7, Reserves: 9, Conflicts: 1,
			Leases: []ReplLease{
				{ID: 1}, // never expires, holds nothing
				{ID: 1<<53 - 1, ExpiresAt: time.Unix(0, 1<<62), Grants: []ReplGrant{{Class: 1<<32 - 1, Millis: 1 << 50}}},
				{ID: 0x20, ExpiresAt: time.Unix(0, 1), JobID: "etl \"nightly\"\\\n\t\x00\x01<&> é", Owner: "al\\ice",
					Grants: make([]ReplGrant, 300)},
				{ID: 0x30, JobID: strings.Repeat("j", 128), Owner: strings.Repeat("\xff", MaxStr8), Grants: []ReplGrant{{Class: 2, Millis: 1}}},
			},
		},
		Blocks: ReplBlocks{
			Generation: 8, Lost: 70, Replaced: 5, Creates: 3, Reimages: 2,
			Blocks: []ReplBlock{
				{ID: 0x40, Replicas: []ReplBlockReplica{{Server: 0}}}, // R = 1, pending
				{ID: 0x50, EnvStrict: true, Replicas: make([]ReplBlockReplica, 64)},
				{ID: 0x60, Replicas: []ReplBlockReplica{{Server: -1, Placed: true}, {Server: 1<<63 - 1}, {Server: 7, Placed: true}}},
			},
		},
	}
}

func TestReplSnapshotRoundTrip(t *testing.T) {
	in := replSnapshotFixture()
	frame := AppendReplSnapshot(nil, 7, &in)
	var out ReplSnapshot
	if err := out.Decode(parsePayload(t, frame, OpReplSnap)); err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in  %+v\n out %+v", in, out)
	}
}

// TestReplSnapshotReservedFields pins the two fields an earlier format used
// for incremental snapshots: both are written as zero; a set PrevGeneration
// word is ignored, a set ref byte — which changed the record's layout — makes
// the frame undecodable.
func TestReplSnapshotReservedFields(t *testing.T) {
	in := replSnapshotFixture()
	payload := AppendReplSnapshot(nil, 7, &in)[HeaderSize:]
	prevGen := 1 + len(in.DC) + 8                  // after DC and Generation
	refByte := prevGen + 8 + 8 + 8 + 8 + 4 + 4 + 1 // … Sent, AsOf, BuiltAt, class count; then id, pattern
	for _, at := range []int{prevGen, refByte} {
		if payload[at] != 0 {
			t.Fatalf("reserved byte at %d written as %d", at, payload[at])
		}
	}
	var out ReplSnapshot
	payload[prevGen] = 7
	if err := out.Decode(payload); err != nil || !reflect.DeepEqual(in, out) {
		t.Fatalf("PrevGeneration word set: err %v, equal %v", err, reflect.DeepEqual(in, out))
	}
	payload[refByte] = 1
	if err := out.Decode(payload); err == nil {
		t.Fatal("a class record with its ref byte set decoded cleanly")
	}
}

func TestReplBeatRoundTrip(t *testing.T) {
	in := ReplBeat{
		DC:           "DC-9",
		Generation:   8,
		SentUnixNano: 55,
		AsOfSeconds:  120,
		Usage:        []ReplClassUsage{{ID: 0, Current: 0.5}, {ID: 1, Current: 0.7}},
		Ledger: ReplLedger{
			Generation: 8, ReservedMillis: 100, ReleasedMillis: 100,
		},
	}
	for _, in := range []ReplBeat{in, replEdgeBeat()} {
		frame := AppendReplBeat(nil, 9, &in)
		var out ReplBeat
		if err := out.Decode(parsePayload(t, frame, OpReplBeat)); err != nil {
			t.Fatalf("Decode: %v", err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("round trip mismatch:\n in  %+v\n out %+v", in, out)
		}
		if again := AppendReplBeat(nil, 9, &out); !bytes.Equal(again, frame) {
			t.Fatal("a beat re-encoded from its decoded message is not the frame it was decoded from")
		}
	}
}

// TestReplBoolBytesAreStrict pins that a block record's two bool bytes decode
// as 0 or 1 and nothing else: a frame with any other value is malformed, and
// decode → encode stays a byte-identical fixed point.
func TestReplBoolBytesAreStrict(t *testing.T) {
	in := replSnapshotFixture()
	payload := AppendReplSnapshot(nil, 7, &in)[HeaderSize:]
	// The payload ends with the one block: id, env_strict, replica count, then
	// two (server, placed) slots.
	const slot = 8 + 1
	for field, at := range map[string]int{
		"env_strict": len(payload) - 2*slot - 2,
		"placed":     len(payload) - slot - 1,
	} {
		if payload[at] != 1 {
			t.Fatalf("%s byte at %d is %d, want 1", field, at, payload[at])
		}
		var out ReplSnapshot
		for _, v := range []byte{2, 0x80, 0xff} {
			payload[at] = v
			if err := out.Decode(payload); err == nil {
				t.Errorf("%s byte %d decoded cleanly", field, v)
			}
		}
		payload[at] = 0
		if err := out.Decode(payload); err != nil {
			t.Errorf("%s byte 0: %v", field, err)
		}
		payload[at] = 1
	}
}

// TestReplDecodeTruncated pins that truncating a replication frame at any
// byte yields ErrShortPayload, never a panic or a silent partial decode.
func TestReplDecodeTruncated(t *testing.T) {
	in := replSnapshotFixture()
	payload := AppendReplSnapshot(nil, 1, &in)[HeaderSize:]
	for n := 0; n < len(payload); n++ {
		var out ReplSnapshot
		if err := out.Decode(payload[:n]); err == nil {
			t.Fatalf("truncation at %d/%d bytes decoded cleanly", n, len(payload))
		}
	}
}

// TestReplPayloadCap pins that replication opcodes get the large payload cap
// while everything else keeps MaxPayload — and that a hostile length field
// on a non-replication opcode still fails fast.
func TestReplPayloadCap(t *testing.T) {
	frame := BeginFrame(nil, OpReplSnap, 1)
	// Forge a header claiming a payload between the two caps.
	frame[4] = 0
	frame[5] = 0
	frame[6] = 0x20 // 2 MiB: over MaxPayload, under MaxReplPayload
	if _, err := ParseHeader(frame); err != nil {
		t.Fatalf("repl frame under MaxReplPayload rejected: %v", err)
	}
	frame[2] = byte(OpSelect)
	if _, err := ParseHeader(frame); err == nil {
		t.Fatal("select frame over MaxPayload accepted")
	}
}

func TestOpIsRepl(t *testing.T) {
	for _, op := range []Op{OpReplHello, OpReplHelloResp, OpReplSnap, OpReplDelta, OpReplBeat} {
		if !op.IsRepl() {
			t.Errorf("%v: IsRepl() = false", op)
		}
		if op.IsRequest() {
			t.Errorf("%v: IsRequest() = true — repl frames must not relay through the public ports", op)
		}
	}
	for _, op := range []Op{OpSelect, OpRelease, OpClasses, OpError, OpSelectResp} {
		if op.IsRepl() {
			t.Errorf("%v: IsRepl() = true", op)
		}
	}
}

func TestPeekSelectFlags(t *testing.T) {
	frame := AppendSelectReq(nil, 1, "DC-9", SelectReq{Job: JobMedium, Flags: SelectFlagDryRun, MaxCores: 8})
	flags, ok := PeekSelectFlags(frame[HeaderSize:])
	if !ok || flags&SelectFlagDryRun == 0 {
		t.Fatalf("PeekSelectFlags = %#x, %v; want dry-run bit set", flags, ok)
	}
	frame = AppendSelectReq(nil, 1, "DC-9", SelectReq{Job: JobShort, MaxCores: 2})
	flags, ok = PeekSelectFlags(frame[HeaderSize:])
	if !ok || flags&SelectFlagDryRun != 0 {
		t.Fatalf("PeekSelectFlags = %#x, %v; want dry-run bit clear", flags, ok)
	}
	if _, ok := PeekSelectFlags([]byte{5, 'D'}); ok {
		t.Fatal("truncated payload peeked successfully")
	}
}
