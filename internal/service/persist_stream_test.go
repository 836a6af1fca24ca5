package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"sort"
	"testing"
	"time"

	"harvest/internal/blockledger"
	"harvest/internal/ledger"
	"harvest/internal/tenant"
)

// TestStreamedFilesDecodeAsExportedState holds the hand-written file encoders
// to the format's definition: what writeLedgerFile and writeBlocksFile write
// must unmarshal into persistedLedger / persistedBlocks exactly as the file
// json.Marshal writes for the header and the ledger's Export() does — the
// files as they were before they were streamed, and as Restore still reads
// them.
func TestStreamedFilesDecodeAsExportedState(t *testing.T) {
	header := persistHeader{Version: persistVersion, Datacenter: `DC "9"`, Seed: -3, ScaleDatacenter: 0.3}
	led, blocks := ledger.New(7, 4), blockledger.New(7)
	var st persistStage
	ledgerFile := func() []byte {
		t.Helper()
		var file bytes.Buffer
		st.copyLeases(led)
		if err := st.writeLedgerFile(&file, header); err != nil {
			t.Fatalf("ledger file: %v", err)
		}
		return file.Bytes()
	}
	blocksFile := func() []byte {
		t.Helper()
		var file bytes.Buffer
		st.copyBlocks(blocks)
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
	// R=1, a pending replica, and enough of them that the file goes out in
	// several chunks.
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
	if len(file) < 2*persistChunk {
		t.Fatalf("blocks file is %d bytes, want several chunks of %d", len(file), persistChunk)
	}
	if n := bytes.Count(file, []byte(`"env_strict"`)); n != 2+(bulk+1)/2 {
		t.Errorf("env_strict written %d times, want %d (omitted when false)", n, 2+(bulk+1)/2)
	}
	var gotBlocks, wantBlocks persistedBlocks
	if err := json.Unmarshal(file, &gotBlocks); err != nil {
		t.Fatalf("blocks file does not parse: %v", err)
	}
	viaMarshal(t, persistedBlocks{persistHeader: header, State: blocks.Export()}, &wantBlocks)
	byID := func(bs []blockledger.PersistedBlock) {
		sort.Slice(bs, func(i, j int) bool { return bs[i].ID < bs[j].ID })
	}
	byID(gotBlocks.State.Blocks)
	byID(wantBlocks.State.Blocks)
	if wantBlocks.State.Lost != 2 || wantBlocks.State.Replaced != 1 || len(wantBlocks.State.Blocks) != 3+bulk {
		t.Fatalf("seeded block ledger is not what the test means to cover: %+v", wantBlocks.State.Books)
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
	st.copyBlocks(blocks)
	failing := &failAfter{chunks: 1}
	if err := st.writeBlocksFile(failing, header); !errors.Is(err, errDiskFull) || failing.refused != 1 {
		t.Errorf("failing write: err %v after %d refused writes; want errDiskFull after 1", err, failing.refused)
	}
	if again := blocksFile(); len(again) != len(file) {
		t.Errorf("file after a failed one is %d bytes, want %d", len(again), len(file))
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
