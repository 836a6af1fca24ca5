package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"harvest/internal/tenant"
	"harvest/internal/timeseries"
)

// storageDriver is storage_refresh's background: a telemetry slot POSTed
// every 200 ms so each 1 s refresh has something to re-cluster, and one
// seeded, rate-weighted reimaging wave.
type storageDriver struct {
	e       *env
	topo    *topology
	control *client
	noise   *rand.Rand // telemetry goroutine only
	pick    *rand.Rand // wave goroutine only

	mu      sync.Mutex
	holders map[int64]bool // servers known to hold a replica

	offset   time.Duration // telemetry clock of the next slot
	stop     chan struct{}
	stopOnce sync.Once
	done     sync.WaitGroup
	posted   int
	postErr  error

	waveAt     time.Time
	waveSize   int
	waveDone   chan struct{} // closed when the wave goroutine has its verdict
	waveErr    error
	waveLost   uint64
	repairedAt time.Time
}

func newStorageDriver(e *env, slice int, topo *topology, control *client, asOfSeconds float64) *storageDriver {
	size := int(math.Round(waveServersAtFullScale * e.scale))
	if size < 3 {
		size = 3
	}
	return &storageDriver{
		e: e, topo: topo, control: control,
		noise:    rand.New(rand.NewSource(e.seed*1_000_003 + 99 + int64(slice))),
		pick:     rand.New(rand.NewSource(e.seed*1_000_003 + 199 + int64(slice))),
		holders:  make(map[int64]bool),
		offset:   time.Duration(asOfSeconds*float64(time.Second)) + timeseries.SlotDuration,
		stop:     make(chan struct{}),
		waveSize: size,
		waveDone: make(chan struct{}),
	}
}

func (d *storageDriver) sawBlock(replicas []int64) {
	d.mu.Lock()
	for _, s := range replicas {
		d.holders[s] = true
	}
	d.mu.Unlock()
}

// slotBody renders one telemetry slot: every tenant's trace utilization at the
// slot's offset, nudged by seeded noise so the values follow -seed.
func (d *storageDriver) slotBody() []byte {
	var b bytes.Buffer
	b.WriteString(`{"samples":[`)
	for i, t := range d.e.pop.Tenants {
		if i > 0 {
			b.WriteByte(',')
		}
		v := t.UtilizationAt(d.offset) + d.noise.NormFloat64()*0.02
		v = math.Min(1, math.Max(0, v))
		fmt.Fprintf(&b, `{"tenant":%d,"at_seconds":%d,"utilization":%.4f}`, t.ID, int64(d.offset.Seconds()), v)
	}
	b.WriteString(`]}`)
	d.offset += timeseries.SlotDuration
	return b.Bytes()
}

func (d *storageDriver) startTelemetry() {
	d.done.Add(1)
	go func() {
		defer d.done.Done()
		tick := time.NewTicker(telemetryEvery)
		defer tick.Stop()
		for {
			select {
			case <-d.stop:
				return
			case <-tick.C:
			}
			resp, err := httpClient.Post(d.topo.primaryURL+"/v1/"+benchDC+"/telemetry", "application/json", bytes.NewReader(d.slotBody()))
			if err == nil {
				var tr struct {
					Rejected int `json:"rejected"`
				}
				derr := json.NewDecoder(resp.Body).Decode(&tr)
				resp.Body.Close()
				switch {
				case resp.StatusCode != http.StatusOK:
					err = fmt.Errorf("telemetry POST: status %d", resp.StatusCode)
				case derr != nil:
					err = derr
				case tr.Rejected != 0:
					err = fmt.Errorf("telemetry POST: %d samples rejected", tr.Rejected)
				}
			}
			d.mu.Lock()
			d.posted++
			if err != nil && d.postErr == nil {
				d.postErr = err
			}
			d.mu.Unlock()
		}
	}()
}

func (d *storageDriver) stopTelemetry() {
	d.stopOnce.Do(func() { close(d.stop) })
	d.done.Wait()
}

// scheduleWave arranges for the reimaging wave to hit at the given instant,
// on the control connection, while the measured connections keep running, and
// then polls the node's /metrics every 100 ms until every lost replica has
// been re-placed.
func (d *storageDriver) scheduleWave(at time.Time) {
	d.waveAt = at
	go func() {
		defer close(d.waveDone)
		time.Sleep(time.Until(at))
		if d.waveErr = d.control.control(request{Kind: opReimage}, d.pickWave()); d.waveErr != nil {
			return
		}
		if d.waveLost = d.control.lostReplicas; d.waveLost == 0 {
			d.waveErr = errors.New("the wave hit no replicas")
			return
		}
		for deadline := time.Now().Add(60 * time.Second); ; time.Sleep(100 * time.Millisecond) {
			b, err := fetchBooks(d.topo.primaryURL, benchDC)
			if err == nil {
				if err = b.repaired(); err == nil {
					d.repairedAt = time.Now()
					return
				}
			}
			if time.Now().After(deadline) || d.topo.primary.exited() {
				d.waveErr = fmt.Errorf("repair did not finish: %w", err)
				return
			}
		}
	}()
}

// pickWave draws waveSize replica-holding servers without replacement,
// weighted by their tenant's historical reimage rate (Efraimidis–Spirakis:
// key = u^(1/w), largest keys win). Candidates are ordered by id before the
// draw so map order never leaks into the sample.
func (d *storageDriver) pickWave() []uint64 {
	d.mu.Lock()
	ids := make([]int64, 0, len(d.holders))
	for s := range d.holders {
		ids = append(ids, s)
	}
	d.mu.Unlock()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	type cand struct {
		id  int64
		key float64
	}
	cands := make([]cand, len(ids))
	for i, s := range ids {
		rate := 0.01 // zero-rate servers still get wiped occasionally
		if t := d.e.pop.OwnerOf(tenant.ServerID(s)); t != nil {
			rate += t.ReimagesPerServerMonth
		}
		cands[i] = cand{id: s, key: math.Pow(d.pick.Float64(), 1/rate)}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].key > cands[j].key })
	if len(cands) > d.waveSize {
		cands = cands[:d.waveSize]
	}
	wave := make([]uint64, len(cands))
	for i, c := range cands {
		wave[i] = uint64(c.id)
	}
	return wave
}

// finish waits for the wave's repairs to complete and reports repair_s: wave
// start until /metrics shows no pending replica and an empty repair queue.
func (d *storageDriver) finish(res *result) error {
	<-d.waveDone
	d.stopTelemetry()
	d.mu.Lock()
	posted, postErr := d.posted, d.postErr
	d.mu.Unlock()
	if postErr != nil {
		return postErr
	}
	if d.waveErr != nil {
		return fmt.Errorf("reimaging wave: %w", d.waveErr)
	}
	res.set("repair_s", d.repairedAt.Sub(d.waveAt).Seconds(), "s")
	res.Info["wave_servers"] = strconv.Itoa(d.waveSize)
	res.Info["wave_replicas_lost"] = strconv.FormatUint(d.waveLost, 10)
	res.Info["telemetry_slots_posted"] = strconv.Itoa(posted)
	return nil
}
