package service_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"harvest/internal/core"
	"harvest/internal/experiments"
	"harvest/internal/service"
	"harvest/internal/timeseries"
)

// TestPublishedGenerationsAreImmutable holds a generation to what it was when
// it was published while later refreshes re-cluster, assemble and persist in
// the storage the shard keeps across generations: a warm generation's
// Clustering, Snapshot and live SelectIndex, deep-copied at publish, equal
// their copies bit for bit after 12 noisy warm refreshes — tenants drifting,
// a pattern group's K-Means re-seeded cold — over 20 telemetry slots, with the
// live view rebuilt after each. Short rings and small classes make drift and
// re-seeding frequent; the test fails if either never happened.
func TestPublishedGenerationsAreImmutable(t *testing.T) {
	cfg := testConfig()
	cfg.PersistDir = t.TempDir()
	cfg.FullRebuildEvery = -1
	cfg.RingSlots = 96
	cfg.Clustering.TenantsPerClass = 3
	svc, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	pop, _, err := experiments.BuildPopulation("DC-9", cfg.Scale)
	if err != nil {
		t.Fatal(err)
	}
	snap, _ := svc.Snapshot("DC-9")
	offset := snap.AsOf + timeseries.SlotDuration
	rng := rand.New(rand.NewSource(3))
	batch := make([]service.IngestSample, len(pop.Tenants))
	slot := func() {
		for i, tn := range pop.Tenants {
			v := tn.UtilizationAt(offset) + rng.NormFloat64()*0.02
			if i == 0 {
				v = float64(int(offset/timeseries.SlotDuration) % 2) // a tenant turned square wave
			}
			batch[i] = service.IngestSample{Tenant: tn.ID, Server: -1, At: offset, Value: math.Min(1, math.Max(0, v))}
		}
		if res, err := svc.Ingest("DC-9", batch); err != nil || res.Rejected != 0 {
			t.Fatalf("ingest: %+v, %v", res, err)
		}
		offset += timeseries.SlotDuration
	}
	refresh := func() core.ReclusterStats {
		if err := svc.Refresh("DC-9"); err != nil {
			t.Fatal(err)
		}
		st, _ := svc.Stats("DC-9")
		if st.Recluster.FullRebuild {
			t.Fatalf("not a warm refresh: %+v", st.Recluster)
		}
		return st.Recluster
	}

	// Generation N: a warm one, its live view built after a slot.
	slot()
	refresh()
	slot()
	n, _ := svc.Snapshot("DC-9")
	idx := svc.LiveSelectIndex("DC-9")
	want := deepCopy(n.Clustering, n, idx)

	drifted, cold := 0, 0
	for round := 0; round < 12; round++ {
		slots := 2
		if round >= 8 {
			slots = 1
		}
		for ; slots > 0; slots-- {
			slot()
			svc.LiveSelectIndex("DC-9")
		}
		st := refresh()
		drifted += st.Drifted
		cold += st.ColdPatterns
		svc.LiveSelectIndex("DC-9")
		if _, _, err := svc.Place("DC-9", core.PlacementConstraints{Replication: 3, Writer: -1}); err != nil {
			t.Fatal(err)
		}
	}
	if drifted == 0 || cold == 0 {
		t.Fatalf("12 refreshes drifted %d tenants and re-seeded %d groups cold: not the refreshes this test needs", drifted, cold)
	}
	if got := deepCopy(n.Clustering, n, idx); !bytes.Equal(got, want) {
		t.Fatalf("generation %d changed after it was published:\n got %s\nwant %s", n.Generation, got, want)
	}
}

// deepCopy writes out everything reachable from vs, unexported fields and
// map entries (in key order) included, floats as their bits: a copy of the
// values, compared for equality as bytes. Pointers are followed, not
// recorded, and a pointer already written is written again as a reference to
// its first occurrence. What may legitimately change under a published
// snapshot is left out: its pool of placement scheme clones and the relaxed
// placement counter shared by those clones.
func deepCopy(vs ...any) []byte {
	var out bytes.Buffer
	seen := map[uintptr]int{}
	for _, v := range vs {
		writeValue(&out, reflect.ValueOf(v), seen)
		out.WriteByte('\n')
	}
	return out.Bytes()
}

var skipTypes = map[reflect.Type]bool{
	reflect.TypeOf(sync.Pool{}):     true,
	reflect.TypeOf(atomic.Uint64{}): true,
}

func writeValue(out *bytes.Buffer, v reflect.Value, seen map[uintptr]int) {
	switch v.Kind() {
	case reflect.Bool:
		fmt.Fprint(out, v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		fmt.Fprint(out, v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		fmt.Fprint(out, v.Uint())
	case reflect.Float32, reflect.Float64:
		fmt.Fprintf(out, "%#x", math.Float64bits(v.Float()))
	case reflect.String:
		fmt.Fprintf(out, "%q", v.String())
	case reflect.Pointer:
		if v.IsNil() || skipTypes[v.Type().Elem()] || v.Type() == reflect.TypeOf((*time.Location)(nil)) {
			out.WriteString("nil")
			return
		}
		if at, ok := seen[v.Pointer()]; ok {
			fmt.Fprintf(out, "&%d", at)
			return
		}
		seen[v.Pointer()] = len(seen)
		out.WriteByte('&')
		writeValue(out, v.Elem(), seen)
	case reflect.Interface:
		if v.IsNil() {
			out.WriteString("nil")
			return
		}
		writeValue(out, v.Elem(), seen)
	case reflect.Slice, reflect.Array:
		if v.Kind() == reflect.Slice && v.IsNil() {
			out.WriteString("nil")
			return
		}
		out.WriteByte('[')
		for i := 0; i < v.Len(); i++ {
			writeValue(out, v.Index(i), seen)
			out.WriteByte(' ')
		}
		out.WriteByte(']')
	case reflect.Map:
		if v.IsNil() {
			out.WriteString("nil")
			return
		}
		entries := make([][]byte, 0, v.Len())
		for it := v.MapRange(); it.Next(); {
			var e bytes.Buffer
			writeValue(&e, it.Key(), seen)
			e.WriteByte(':')
			writeValue(&e, it.Value(), seen)
			entries = append(entries, e.Bytes())
		}
		slices.SortFunc(entries, bytes.Compare)
		out.WriteByte('{')
		out.Write(bytes.Join(entries, []byte(" ")))
		out.WriteByte('}')
	case reflect.Struct:
		out.WriteByte('{')
		for i := 0; i < v.NumField(); i++ {
			if skipTypes[v.Field(i).Type()] {
				continue
			}
			out.WriteString(v.Type().Field(i).Name)
			out.WriteByte(':')
			writeValue(out, v.Field(i), seen)
			out.WriteByte(' ')
		}
		out.WriteByte('}')
	case reflect.Func:
		fmt.Fprint(out, "func:", !v.IsNil())
	default:
		panic(fmt.Sprintf("deepCopy: unhandled kind %v", v.Kind()))
	}
}
