package wire

import (
	"bytes"
	"fmt"
	"io"
	"math/bits"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// Tests for the growth rule (grownCap): reused decode storage keeps what it
// holds and grows by powers of two, and the frame reader's scratch likewise.

// TestSizedKeepsItsElementsAcrossARegrow pins the half of the rule that makes
// a growing follower cheap: the elements a regrow moves keep their inner
// slices, backing arrays and all, for the decode loop to refill.
func TestSizedKeepsItsElementsAcrossARegrow(t *testing.T) {
	payload := make([]byte, 1<<16)
	held := make([]ReplLease, 6)
	inner := func(ls *ReplLease) *ReplGrant { return &ls.Grants[:1][0] }
	var before [6]*ReplGrant
	for i := range held {
		held[i].Grants = make([]ReplGrant, 1, 3)
		before[i] = inner(&held[i])
	}

	r := NewReader(payload)
	grown := sized(held[:5], 9, replLeaseMinSize, &r) // the sixth is spare capacity, also kept
	if len(grown) != 9 || cap(grown) != 16 {
		t.Fatalf("sized to 9 elements: len %d cap %d, want 9 and the next power of two, 16", len(grown), cap(grown))
	}
	for i, want := range before {
		if got := inner(&grown[i]); got != want || cap(grown[i].Grants) != 3 {
			t.Errorf("element %d lost its inner slice across the regrow (cap %d, want 3)", i, cap(grown[i].Grants))
		}
	}
	if r.bad || r.Err() != nil {
		t.Fatal("an honest count poisoned the reader")
	}
	for n := 1; n <= 1025; n++ {
		r := NewReader(payload)
		if c := cap(sized([]ReplLease(nil), n, replLeaseMinSize, &r)); c < n || c >= 2*n || bits.OnesCount(uint(c)) != 1 {
			t.Fatalf("sized(nil, %d) has capacity %d, want the next power of two", n, c)
		}
	}

	// Shrinking and growing back inside the capacity moves nothing.
	r = NewReader(payload)
	if again := sized(sized(grown, 2, replLeaseMinSize, &r), 16, replLeaseMinSize, &r); &again[0] != &grown[0] || inner(&again[5]) != before[5] {
		t.Error("resizing inside the capacity reallocated")
	}
}

// TestSizedClampsALyingCount: a count the payload cannot hold still poisons
// the reader, still fails Done, and reserves less than twice what the payload
// could hold.
func TestSizedClampsALyingCount(t *testing.T) {
	for _, remaining := range []int{0, 19, 20, 100 * replLeaseMinSize, 4097 * replLeaseMinSize} {
		r := NewReader(make([]byte, remaining))
		most := r.Remaining() / replLeaseMinSize
		got := sized([]ReplLease(nil), 1<<30, replLeaseMinSize, &r)
		if len(got) != most || (most > 0 && cap(got) >= 2*most) || (most == 0 && cap(got) != 0) {
			t.Errorf("%d payload bytes, count 2^30: len %d cap %d, want len %d and cap under %d", remaining, len(got), cap(got), most, 2*most)
		}
		if !r.bad {
			t.Errorf("%d payload bytes: the lying count did not poison the reader", remaining)
		}
		r.Bytes(r.Remaining()) // even consumed to the last byte,
		if r.Done() == nil {   // the decode fails
			t.Errorf("%d payload bytes: Done passed after a lying count", remaining)
		}
	}
}

// randomBeat draws a beat of about the given size: leases with 0–6 grants and
// sometimes metadata or no expiry, blocks with 0–5 replica slots.
func randomBeat(rng *rand.Rand, leases, blocks int) ReplBeat {
	m := ReplBeat{DC: "DC-9", Generation: rng.Uint64(), SentUnixNano: rng.Int63(), AsOfSeconds: rng.Float64()}
	for i := rng.Intn(5); i > 0; i-- {
		m.Usage = append(m.Usage, ReplClassUsage{ID: rng.Uint32(), Current: rng.Float64()})
	}
	m.Ledger = ReplLedger{Generation: m.Generation, ReservedMillis: rng.Int63(), Reserves: rng.Uint64()}
	for i := 0; i < leases; i++ {
		ls := ReplLease{ID: rng.Uint64()}
		if rng.Intn(4) > 0 {
			ls.ExpiresAt = time.Unix(0, 1+rng.Int63())
		}
		if rng.Intn(4) == 0 {
			ls.JobID, ls.Owner = fmt.Sprint("job-", rng.Intn(100)), "alice"
		}
		for j := rng.Intn(7); j > 0; j-- {
			ls.Grants = append(ls.Grants, ReplGrant{Class: rng.Uint32(), Millis: rng.Int63()})
		}
		m.Ledger.Leases = append(m.Ledger.Leases, ls)
	}
	m.Blocks = ReplBlocks{Generation: m.Generation, Lost: rng.Int63(), Creates: rng.Uint64()}
	for i := 0; i < blocks; i++ {
		b := ReplBlock{ID: rng.Uint64(), EnvStrict: rng.Intn(2) == 0}
		for j := rng.Intn(6); j > 0; j-- {
			b.Replicas = append(b.Replicas, ReplBlockReplica{Server: rng.Int63(), Placed: rng.Intn(3) > 0})
		}
		m.Blocks.Blocks = append(m.Blocks.Blocks, b)
	}
	return m
}

// normalBeat copies a decoded beat with every empty list nil: a reused message
// holds an empty list where a fresh one holds a nil one, and DeepEqual tells
// the two apart.
func normalBeat(m *ReplBeat) ReplBeat {
	out := *m
	out.Usage = append([]ReplClassUsage(nil), m.Usage...)
	out.Ledger.Leases = append([]ReplLease(nil), m.Ledger.Leases...)
	for i := range out.Ledger.Leases {
		ls := &out.Ledger.Leases[i]
		ls.Grants = append([]ReplGrant(nil), ls.Grants...)
	}
	out.Blocks.Blocks = append([]ReplBlock(nil), m.Blocks.Blocks...)
	for i := range out.Blocks.Blocks {
		b := &out.Blocks.Blocks[i]
		b.Replicas = append([]ReplBlockReplica(nil), b.Replicas...)
	}
	return out
}

// TestDecodeIntoAReusedBeatEqualsAFreshDecode is the property that makes
// keeping the old elements safe: whatever one long-lived message decoded
// before — more leases or fewer, longer grant lists or none — the next decode
// leaves it equal to a fresh message's decode of the same payload, and
// re-encoding it gives the payload back.
func TestDecodeIntoAReusedBeatEqualsAFreshDecode(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var reused ReplBeat
		leases, blocks := 0, 0
		for step := 0; step < 200; step++ {
			// A walk that mostly creeps upward, sometimes collapses.
			switch rng.Intn(10) {
			case 0:
				leases, blocks = leases/3, blocks/2
			case 1, 2:
				leases, blocks = max(0, leases-rng.Intn(8)), max(0, blocks-rng.Intn(8))
			default:
				leases, blocks = leases+rng.Intn(12), blocks+rng.Intn(12)
			}
			in := randomBeat(rng, leases, blocks)
			payload := AppendReplBeat(nil, 0, &in)[HeaderSize:]
			var fresh ReplBeat
			if err := fresh.Decode(payload); err != nil {
				t.Fatalf("seed %d step %d: fresh decode: %v", seed, step, err)
			}
			if err := reused.Decode(payload); err != nil {
				t.Fatalf("seed %d step %d: reused decode: %v", seed, step, err)
			}
			if want := normalBeat(&fresh); !reflect.DeepEqual(normalBeat(&reused), want) || !reflect.DeepEqual(want, in) {
				t.Fatalf("seed %d step %d (%d leases, %d blocks): the reused message differs from a fresh decode", seed, step, leases, blocks)
			}
			if again := AppendReplBeat(nil, 0, &reused)[HeaderSize:]; !bytes.Equal(again, payload) {
				t.Fatalf("seed %d step %d: the reused message re-encodes to other bytes", seed, step)
			}
		}
	}
}

// TestGrowingBeatDecodesForWhatGrew: one more lease in the payload is a
// handful of objects to a long-lived message, across a capacity boundary too.
func TestGrowingBeatDecodesForWhatGrew(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	rng := rand.New(rand.NewSource(1))
	in := randomBeat(rng, 1000, 1000)
	for i := range in.Ledger.Leases {
		in.Ledger.Leases[i].JobID, in.Ledger.Leases[i].Owner = "", "" // strings are copied out per decode
	}
	var reused ReplBeat
	var payload []byte
	for step := 0; step < 100; step++ { // 1,000 -> 1,100 leases and blocks: past 1,024
		in.Ledger.Leases = append(in.Ledger.Leases, ReplLease{ID: uint64(step + 1), Grants: []ReplGrant{{Class: 1, Millis: 1000}}})
		in.Blocks.Blocks = append(in.Blocks.Blocks, ReplBlock{ID: uint64(step + 1), Replicas: []ReplBlockReplica{{Server: 1, Placed: true}}})
		payload = AppendReplBeat(payload[:0], 0, &in)
		// One decode, counted by hand: AllocsPerRun's warm-up run would do the
		// growing.
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := reused.Decode(payload[HeaderSize:])
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		// The name, the new lease's grants, the new block's replicas, and on
		// the boundary beat the two regrown lists.
		if got := after.Mallocs - before.Mallocs; step > 0 && got > 5 {
			t.Fatalf("step %d: decoding a beat one lease and one block larger allocates %d objects, budget 5", step, got)
		}
	}
}

// TestReadRawFrameRegrowsGeometrically: a stream whose every frame is 1 %
// larger than the last regrows the scratch once per doubling, not once per
// frame.
func TestReadRawFrameRegrowsGeometrically(t *testing.T) {
	var sizes []int
	for n := 10_000; n < 1_000_000; n += n / 100 {
		sizes = append(sizes, n)
	}
	var frames []io.Reader
	for _, n := range sizes {
		frames = append(frames, bytes.NewReader(frameHeader(OpReplBeat, 1, uint32(n))), io.LimitReader(zeros{}, int64(n)))
	}
	src := io.MultiReader(frames...)
	var scratch []byte
	regrows := 0
	for _, n := range sizes {
		held := cap(scratch)
		h, raw, err := ReadRawFrame(src, &scratch, false)
		if err != nil || int(h.Len) != n || len(raw) != HeaderSize+n {
			t.Fatalf("frame of %d bytes: header %+v, %d raw bytes, err %v", n, h, len(raw), err)
		}
		if cap(scratch) != held {
			regrows++
			if c := cap(scratch); bits.OnesCount(uint(c)) != 1 || c >= 2*len(raw) {
				t.Fatalf("frame of %d bytes grew the scratch to %d, want the next power of two", len(raw), c)
			}
		}
	}
	if doublings := bits.Len(uint(sizes[len(sizes)-1] / sizes[0])); regrows > doublings+1 {
		t.Errorf("%d frames growing 100x regrew the scratch %d times, want at most %d", len(sizes), regrows, doublings+1)
	}
}
