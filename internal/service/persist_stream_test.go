package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"harvest/internal/blockledger"
	"harvest/internal/core"
	"harvest/internal/ledger"
	"harvest/internal/signalproc"
	"harvest/internal/tenant"
	"harvest/internal/wire"
)

// TestStreamedFilesDecodeAsExportedState holds the hand-written file encoders
// to the format's definition: what writeLedgerFile and writeBlocksFile write
// from a staged ledger must unmarshal into persistedLedger / persistedBlocks
// exactly as the file json.Marshal writes for the header and the ledger's
// Export() does — the files as they were before they were streamed, and as
// Restore still reads them. FuzzStagedFiles does the same for every record
// there could be, not only those a ledger in this test happens to hold.
func TestStreamedFilesDecodeAsExportedState(t *testing.T) {
	header := persistHeader{Version: persistVersion, Datacenter: `DC "9"`, Seed: -3, ScaleDatacenter: 0.3}
	led, blocks := ledger.New(7, 4), blockledger.New(7)
	var st persistStage
	ledgerFile := func() []byte {
		t.Helper()
		var file bytes.Buffer
		st.stageLeases(led)
		if err := st.writeLedgerFile(&file, header); err != nil {
			t.Fatalf("ledger file: %v", err)
		}
		return file.Bytes()
	}
	blocksFile := func() []byte {
		t.Helper()
		var file bytes.Buffer
		st.stageBlocks(blocks)
		if err := st.writeBlocksFile(&file, header); err != nil {
			t.Fatalf("blocks file: %v", err)
		}
		return file.Bytes()
	}

	// Empty ledgers: both lists are [], not null, as Export's are.
	if file := ledgerFile(); !bytes.Contains(file, []byte(`"leases":[]`)) {
		t.Errorf("empty ledger file: %s", file)
	}
	if file := blocksFile(); !bytes.Contains(file, []byte(`"blocks":[]`)) {
		t.Errorf("empty blocks file: %s", file)
	}

	// Leases: expiring and not, one and two grants, metadata that needs every
	// kind of escape, and books with every counter moved (a renewal included,
	// for the omitempty "renews").
	now := time.Now()
	reserve := func(ttl time.Duration, meta ledger.Meta, reqs ...ledger.Request) ledger.Lease {
		l, err := led.ReserveMeta(7, reqs, ttl, now, meta)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	one := ledger.Request{Class: 1, Cores: 1.5, Capacity: 1e9}
	two := ledger.Request{Class: 3, Cores: 0.25, Capacity: 1e9}
	reserve(0, ledger.Meta{}, one)
	reserve(time.Hour, ledger.Meta{JobID: "etl \"nightly\"\\\n\t\x01<&> é", Owner: "al\\ice"}, one, two)
	renewed := reserve(time.Minute, ledger.Meta{Owner: "bob"}, two)
	if _, err := led.Renew(renewed.ID, time.Hour, now); err != nil {
		t.Fatal(err)
	}
	if _, err := led.Release(reserve(time.Hour, ledger.Meta{}, one).ID); err != nil {
		t.Fatal(err)
	}
	reserve(time.Nanosecond, ledger.Meta{}, two)
	led.ExpireBefore(now.Add(time.Second))

	var gotLedger, wantLedger persistedLedger
	if err := json.Unmarshal(ledgerFile(), &gotLedger); err != nil {
		t.Fatalf("ledger file does not parse: %v", err)
	}
	viaMarshal(t, persistedLedger{persistHeader: header, State: led.Export()}, &wantLedger)
	sort.Slice(gotLedger.State.Leases, func(i, j int) bool { return gotLedger.State.Leases[i].ID < gotLedger.State.Leases[j].ID })
	if len(wantLedger.State.Leases) != 3 || wantLedger.State.Renews != 1 || wantLedger.State.Expiries != 1 {
		t.Fatalf("seeded ledger is not what the test means to cover: %+v", wantLedger.State)
	}
	if !reflect.DeepEqual(gotLedger, wantLedger) {
		t.Errorf("ledger file decodes as\n%+v\nwant\n%+v", gotLedger, wantLedger)
	}

	// Blocks: env-strict and not (env_strict is omitted when false), R=3 and
	// R=1, a pending replica, and enough of them that the section is staged,
	// and the file goes out, in several chunks.
	create := func(envStrict bool, servers ...tenant.ServerID) {
		t.Helper()
		if _, err := blocks.Create(7, servers, envStrict); err != nil {
			t.Fatal(err)
		}
	}
	create(true, 1, 2, 3)
	create(false, 2, 4, 6)
	create(true, 5)
	if lost := blocks.Reimage(2); lost != 2 {
		t.Fatalf("reimage hit %d replicas, want 2", lost)
	}
	if err := blocks.Replace(7, blocks.TakeRepairs(1)[0], 9); err != nil {
		t.Fatal(err)
	}
	const bulk = 3 * persistChunk / 145 // ≈145 B a block
	for i := 0; i < bulk; i++ {
		s := tenant.ServerID(1000 + i%1000)
		create(i%2 == 0, s, s+1000, s+2000)
	}

	file := blocksFile()
	if len(file) < 2*persistChunk || st.blocks.used < 2 {
		t.Fatalf("blocks file is %d bytes staged in %d chunks, want several of each", len(file), st.blocks.used)
	}
	if n := bytes.Count(file, []byte(`"env_strict"`)); n != 2+(bulk+1)/2 {
		t.Errorf("env_strict written %d times, want %d (omitted when false)", n, 2+(bulk+1)/2)
	}
	var gotBlocks, wantBlocks persistedBlocks
	if err := json.Unmarshal(file, &gotBlocks); err != nil {
		t.Fatalf("blocks file does not parse: %v", err)
	}
	viaMarshal(t, persistedBlocks{persistHeader: header, State: blocks.Export()}, &wantBlocks)
	byID := func(bs []wire.ReplBlock) {
		sort.Slice(bs, func(i, j int) bool { return bs[i].ID < bs[j].ID })
	}
	byID(gotBlocks.State.Blocks)
	byID(wantBlocks.State.Blocks)
	if wantBlocks.State.Lost != 2 || wantBlocks.State.Replaced != 1 || len(wantBlocks.State.Blocks) != 3+bulk {
		t.Fatalf("seeded block ledger is not what the test means to cover: lost %d, replaced %d, %d blocks",
			wantBlocks.State.Lost, wantBlocks.State.Replaced, len(wantBlocks.State.Blocks))
	}
	if !reflect.DeepEqual(gotBlocks, wantBlocks) {
		t.Error("blocks file does not decode as the marshalled Export() does")
	}

	// And the decoded states restore to the same books.
	restored, err := blockledger.Restore(gotBlocks.State, 7)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := restored.Snapshot(), blocks.Snapshot(); got != want {
		t.Errorf("restored block books %+v, want %+v", got, want)
	}
	restoredLed, err := ledger.Restore(gotLedger.State, 7, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := restoredLed.Snapshot(), led.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Errorf("restored ledger books %+v, want %+v", got, want)
	}

	// A write that fails part-way is reported, nothing is written after it,
	// and the stage is good for the next file.
	st.stageBlocks(blocks)
	failing := &failAfter{chunks: 1}
	if err := st.writeBlocksFile(failing, header); !errors.Is(err, errDiskFull) || failing.refused != 1 {
		t.Errorf("failing write: err %v after %d refused writes; want errDiskFull after 1", err, failing.refused)
	}
	if again := blocksFile(); len(again) != len(file) {
		t.Errorf("file after a failed one is %d bytes, want %d", len(again), len(file))
	}
}

// FuzzStagedFiles draws both ledgers' states from a seed and requires them
// back equal through all three encoders of the one record type: the frame
// codec (and the frame re-encoded byte for byte from its decoded message),
// the json tags, and the files written from the states staged as sections.
func FuzzStagedFiles(f *testing.F) {
	for seed := int64(1); seed <= 200; seed++ {
		f.Add(seed)
	}
	header := persistHeader{Version: persistVersion, Datacenter: `DC "9"`, Seed: -3, ScaleDatacenter: 0.3}
	f.Fuzz(func(t *testing.T, seed int64) {
		leases, placements := randomShardState(rand.New(rand.NewSource(seed)))
		canonState(&leases, &placements)
		check := func(via string, gotLeases wire.ReplLedger, gotBlocks wire.ReplBlocks) {
			t.Helper()
			canonState(&gotLeases, &gotBlocks)
			if !reflect.DeepEqual(gotLeases, leases) {
				t.Fatalf("leases through %s:\n got %+v\nwant %+v", via, gotLeases, leases)
			}
			if !reflect.DeepEqual(gotBlocks, placements) {
				t.Fatalf("blocks through %s:\n got %+v\nwant %+v", via, gotBlocks, placements)
			}
		}

		frame := wire.AppendReplBeat(nil, 1, &wire.ReplBeat{DC: header.Datacenter, Ledger: leases, Blocks: placements})
		var beat wire.ReplBeat
		if err := beat.Decode(frame[wire.HeaderSize:]); err != nil {
			t.Fatalf("frame does not decode: %v", err)
		}
		check("a frame", beat.Ledger, beat.Blocks)
		if again := wire.AppendReplBeat(nil, 1, &beat); !bytes.Equal(again, frame) {
			t.Fatal("the frame re-encoded from its decoded message differs")
		}

		var gotLedger persistedLedger
		var gotBlocks persistedBlocks
		viaMarshal(t, persistedLedger{persistHeader: header, State: leases}, &gotLedger)
		viaMarshal(t, persistedBlocks{persistHeader: header, State: placements}, &gotBlocks)
		check("json.Marshal", gotLedger.State, gotBlocks.State)

		var st persistStage
		stageState(&st, &leases, &placements)
		var ledgerFile, blocksFile bytes.Buffer
		if err := errors.Join(st.writeLedgerFile(&ledgerFile, header), st.writeBlocksFile(&blocksFile, header)); err != nil {
			t.Fatal(err)
		}
		gotLedger, gotBlocks = persistedLedger{}, persistedBlocks{}
		if err := errors.Join(json.Unmarshal(ledgerFile.Bytes(), &gotLedger), json.Unmarshal(blocksFile.Bytes(), &gotBlocks)); err != nil {
			t.Fatalf("staged files do not parse: %v", err)
		}
		check("the staged files", gotLedger.State, gotBlocks.State)
		if gotLedger.persistHeader != header || gotBlocks.persistHeader != header {
			t.Fatalf("staged headers %+v / %+v", gotLedger.persistHeader, gotBlocks.persistHeader)
		}
	})
}

// stageState stages states the way stageLeases and stageBlocks stage a
// ledger's: the head, then each record through its section's room.
func stageState(st *persistStage, leases *wire.ReplLedger, blocks *wire.ReplBlocks) {
	dst := wire.AppendReplLedgerHead(st.leases.begin(), leases, len(leases.Leases))
	for i := range leases.Leases {
		dst = wire.AppendReplLease(st.leases.room(dst), &leases.Leases[i])
	}
	st.leases.end(dst)
	dst = wire.AppendReplBlocksHead(st.blocks.begin(), blocks, len(blocks.Blocks))
	for i := range blocks.Blocks {
		dst = wire.AppendReplBlock(st.blocks.room(dst), &blocks.Blocks[i])
	}
	st.blocks.end(dst)
}

// TestPersistStageAllocatesOnlyForGrowth pins what staging and writing the
// block file costs the heap: chunks for the blocks past the most the stage
// has held, and a few small objects besides. Before the section was staged in
// chunks the stage kept, a ledger that outgrew the stage's flat copy was
// copied whole into a new one: ≈2.8 MB for 2,000 blocks past 30,000.
func TestPersistStageAllocatesOnlyForGrowth(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	header := persistHeader{Version: persistVersion, Datacenter: "DC-9"}
	blocks := blockledger.New(7)
	var st persistStage
	create := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			s := tenant.ServerID(i % 1000)
			if _, err := blocks.Create(7, []tenant.ServerID{s, s + 1000, s + 2000}, i%2 == 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	persist := func() uint64 {
		t.Helper()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		st.stageBlocks(blocks)
		err := st.writeBlocksFile(io.Discard, header)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.TotalAlloc - before.TotalAlloc
	}

	create(30_000)
	persist()
	create(2_000)
	if got, budget := persist(), uint64(2_000*64+sectionChunk); got > budget {
		t.Errorf("staging and writing 2,000 blocks past 30,000 allocates %d B, budget %d", got, budget)
	}
	if got := persist(); got > 4<<10 {
		t.Errorf("staging and writing 32,000 blocks again allocates %d B, budget 4 KiB", got)
	}
}

// TestSnapshotFileIsMarshalledRecords holds writeSnapshotFile to the format's
// definition: for any snapshot, the bytes are json.Marshal's of the file
// struct whose Classes are the snapshot's class records — every float in
// shortest and exponent form, a class with no centroid or no servers, names
// that need escaping — and a stage that wrote a larger class list before
// writes a smaller one the same. A statistic with no JSON form fails the file
// as it fails json.Marshal.
func TestSnapshotFileIsMarshalledRecords(t *testing.T) {
	header := persistHeader{Version: persistVersion, Datacenter: `DC <"9">`, Seed: -3, ScaleDatacenter: 0.3}
	floats := []float64{0, math.Copysign(0, -1), 1, -2.5, 0.1, 1e-6, 9.99e-7, 1e-7, 5e-324, 1e20, 1e21, -1.5e300, math.MaxFloat64, 123456789.123456789}
	rng := rand.New(rand.NewSource(5))
	snapshotOf := func(classes int) *Snapshot {
		var list []*core.UtilizationClass
		usage := map[core.ClassID]core.ClassUsage{}
		server, id := tenant.ServerID(0), tenant.ID(0)
		for c := 0; c < classes; c++ {
			cls := &core.UtilizationClass{
				ID:              core.ClassID(c),
				Pattern:         signalproc.Pattern(c % signalproc.NumPatterns),
				AvgUtilization:  floats[rng.Intn(len(floats))],
				PeakUtilization: floats[rng.Intn(len(floats))],
			}
			if c%3 != 1 {
				for d := 0; d < signalproc.NumFeatures; d++ {
					cls.Centroid = append(cls.Centroid, floats[rng.Intn(len(floats))])
				}
			}
			for n := rng.Intn(4); n >= 0; n-- {
				cls.Tenants = append(cls.Tenants, id)
				id++
			}
			for n := rng.Intn(5) * (c % 2); n > 0; n-- {
				cls.Servers = append(cls.Servers, server)
				server += tenant.ServerID(rng.Intn(1 << 20))
			}
			list = append(list, cls)
			usage[cls.ID] = core.ClassUsage{CurrentUtilization: floats[rng.Intn(len(floats))]}
		}
		clustering, err := core.NewClusteringFromClasses(list)
		if err != nil {
			t.Fatal(err)
		}
		return &Snapshot{Generation: uint64(classes), AsOf: 90 * time.Minute, BuiltAt: time.Date(2026, 3, 4, 5, 6, 7, 891, time.UTC), Clustering: clustering, Usage: usage}
	}
	fileOf := func(snap *Snapshot) persistedSnapshot {
		return persistedSnapshot{persistHeader: header, Generation: snap.Generation, AsOfSeconds: snap.AsOf.Seconds(), BuiltAt: snap.BuiltAt, NumTenants: 40, NumServers: 200}
	}
	var st persistStage
	for _, classes := range []int{9, 1, 30, 4} {
		snap := snapshotOf(classes)
		p := fileOf(snap)
		var got bytes.Buffer
		if err := st.writeSnapshotFile(&got, p, snap); err != nil {
			t.Fatalf("%d classes: %v", classes, err)
		}
		p.Classes, _ = classRecords(nil, nil, snap, snap.Usage)
		want, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("%d classes:\n got %s\nwant %s", classes, got.Bytes(), want)
		}
	}

	snap := snapshotOf(2)
	snap.Clustering.Classes[1].Centroid = []float64{0.5, math.NaN()}
	p := fileOf(snap)
	if err := st.writeSnapshotFile(io.Discard, p, snap); err == nil {
		t.Error("a NaN centroid was written")
	}
	p.Classes, _ = classRecords(nil, nil, snap, snap.Usage)
	if _, err := json.Marshal(p); err == nil {
		t.Error("json.Marshal wrote a NaN centroid")
	}
}

// BenchmarkStageBlocks prices what a persist holds the block ledger's shard
// locks for: staging 36,000 R=3 blocks, the storage_refresh workload's state,
// under one Walk.
func BenchmarkStageBlocks(b *testing.B) {
	blocks := blockledger.New(7)
	for i := 0; i < 36_000; i++ {
		s := tenant.ServerID(i % 1000)
		if _, err := blocks.Create(7, []tenant.ServerID{s, s + 1000, s + 2000}, true); err != nil {
			b.Fatal(err)
		}
	}
	var st persistStage
	st.stageBlocks(blocks)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.stageBlocks(blocks)
	}
}

// randomShardState draws both ledgers' states from the values a codec is most
// likely to get wrong. Invalid UTF-8 is left out: a frame carries it, JSON
// replaces it.
func randomShardState(rng *rand.Rand) (wire.ReplLedger, wire.ReplBlocks) {
	pick := func(vs ...int64) int64 { return vs[rng.Intn(len(vs))] }
	i64 := func() int64 { return pick(0, 1, -1, math.MaxInt64, math.MinInt64, rng.Int63()) }
	u64 := func() uint64 { return uint64(i64()) }
	alphabet := []rune("ab \"\\/\x00\x01\n\t\x1f\x7f<&>é\u2028\U0001F600")
	str := func() string { // of exactly the drawn length in bytes
		var b strings.Builder
		for n := int(pick(0, 0, 1, int64(rng.Intn(20)), 128)); b.Len() < n; {
			r := alphabet[rng.Intn(len(alphabet))]
			if b.Len()+len(string(r)) > n {
				r = 'x'
			}
			b.WriteRune(r)
		}
		return b.String()
	}

	leases := wire.ReplLedger{Generation: u64(), Renews: uint64(pick(0, 0, 1, rng.Int63())), Leases: make([]wire.ReplLease, rng.Intn(12))}
	for _, millis := range []*int64{&leases.ReservedMillis, &leases.ReleasedMillis, &leases.ExpiredMillis, &leases.ForfeitedMillis} {
		*millis = i64()
	}
	for _, count := range []*uint64{&leases.Reserves, &leases.Releases, &leases.Expiries, &leases.Conflicts} {
		*count = u64()
	}
	for i := range leases.Leases {
		ls := &leases.Leases[i]
		ls.ID, ls.JobID, ls.Owner = u64(), str(), str()
		// Never, the first and last instants a frame's UnixNano distinguishes
		// from never, and an ordinary deadline.
		if ns := pick(0, 1, -1, math.MaxInt64, math.MinInt64, time.Now().UnixNano()+rng.Int63n(1e12)); ns != 0 {
			ls.ExpiresAt = time.Unix(0, ns)
		}
		ls.Grants = make([]wire.ReplGrant, pick(0, 1, 2, int64(rng.Intn(40))))
		for j := range ls.Grants {
			ls.Grants[j] = wire.ReplGrant{Class: uint32(pick(0, 1, math.MaxUint32, int64(rng.Intn(64)))), Millis: i64()}
		}
	}

	placements := wire.ReplBlocks{
		Generation: u64(), Lost: i64(), Replaced: i64(), Creates: u64(), Reimages: u64(),
		Blocks: make([]wire.ReplBlock, rng.Intn(10)),
	}
	for i := range placements.Blocks {
		b := &placements.Blocks[i]
		b.ID, b.EnvStrict = u64(), rng.Intn(2) == 0
		b.Replicas = make([]wire.ReplBlockReplica, pick(1, 3, 64, 1+int64(rng.Intn(64))))
		for j := range b.Replicas {
			b.Replicas[j] = wire.ReplBlockReplica{Server: i64(), Placed: rng.Intn(3) > 0}
		}
	}
	return leases, placements
}

// canonState rewrites what the three encoders may differ in without differing
// in meaning: an instant's location, and an empty list's nil-ness.
func canonState(leases *wire.ReplLedger, blocks *wire.ReplBlocks) {
	if len(leases.Leases) == 0 {
		leases.Leases = nil
	}
	for i := range leases.Leases {
		ls := &leases.Leases[i]
		ls.ExpiresAt = ls.ExpiresAt.UTC()
		if len(ls.Grants) == 0 {
			ls.Grants = nil
		}
	}
	if len(blocks.Blocks) == 0 {
		blocks.Blocks = nil
	}
}

var errDiskFull = errors.New("disk full")

// failAfter accepts the given number of writes and refuses the rest.
type failAfter struct{ chunks, refused int }

func (w *failAfter) Write(p []byte) (int, error) {
	if w.chunks == 0 {
		w.refused++
		return 0, errDiskFull
	}
	w.chunks--
	return len(p), nil
}

// viaMarshal decodes into out the file json.Marshal writes for v: what a
// state file held, and restored as, when it was marshalled whole.
func viaMarshal(t *testing.T, v, out any) {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, out); err != nil {
		t.Fatal(err)
	}
}
