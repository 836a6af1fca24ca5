package loadgen

import (
	"fmt"
	"sync"
	"time"

	"harvest/internal/obs"
)

// Config is one query run: Workers connections, each with its own seeded
// request stream drawn from Mix, in Proto's dialect, against Target.
type Config struct {
	Target   string        // base URL or host:port of a harvestd or a harvestrouter
	Proto    string        // "json" or "binary"
	Workers  int           // concurrent connections
	Pipeline int           // requests kept in flight per connection (closed loop)
	Duration time.Duration // measured duration
	Rate     float64       // > 0: open loop at this many scheduled requests/second across all workers
	Mix      string        // "select=30,release=25,…"
	Seed     int64
	Wait     time.Duration // discovery grace window
}

// Report is the machine-readable summary of a run; CI's daemons job reads it
// with jq.
type Report struct {
	Mode            string  `json:"mode"` // "closed-loop" or "open-loop"
	Proto           string  `json:"proto"`
	Target          string  `json:"target"`
	Mix             string  `json:"mix"`
	Seed            int64   `json:"seed"`
	DurationSeconds float64 `json:"duration_seconds"` // measured wall time: the schedule plus its in-flight tail, not the drain
	Workers         int     `json:"workers"`
	Pipeline        int     `json:"pipeline"`
	TargetRate      float64 `json:"target_rate,omitempty"`
	Requests        uint64  `json:"requests"` // replies read, whatever their status
	Errors          uint64  `json:"errors"`   // replies with status ≥ 400 or an error frame
	// Reconnects counts connection-level failures, the drain's included; in
	// the open loop every request the broken connection lost is one.
	Reconnects uint64  `json:"reconnects"`
	QPS        float64 `json:"qps"`
	// TraceSample is the trace id of the newest traced reply a connection saw —
	// recent enough to still resolve in the target's /debug/traces ring right
	// after the run.
	TraceSample string `json:"trace_sample,omitempty"`
	// LatencyUs is measured from enqueue into the pipeline window (closed
	// loop) or from the scheduled instant (open loop), in obs.Histogram's
	// power-of-two buckets.
	LatencyUs Latency           `json:"latency_us"`
	Ops       map[string]OpStat `json:"ops"`
	// Backends counts replies per serving replica, from the router's
	// X-Harvest-Backend header; absent against a harvestd or in the binary
	// dialect, whose relay has no header to carry it.
	Backends map[string]uint64 `json:"backends,omitempty"`
}

type Latency struct {
	Mean float64 `json:"mean"`
	P50  uint64  `json:"p50"`
	P90  uint64  `json:"p90"`
	P99  uint64  `json:"p99"`
	Max  uint64  `json:"max"`
}

type OpStat struct {
	Requests uint64 `json:"requests"`
	Errors   uint64 `json:"errors"`
}

// OpNames lists Report.Ops' keys in display order.
func OpNames() []string { return opNames[:] }

// Run drives the query load and, once every connection's schedule and
// in-flight window have finished, releases the leases the run still holds so
// the target's ledger books balance at outstanding == 0.
func Run(cfg Config) (*Report, error) {
	m, err := parseMix(cfg.Mix)
	if err != nil {
		return nil, fmt.Errorf("bad mix %q: %w", cfg.Mix, err)
	}
	proto, ok := protos[cfg.Proto]
	if !ok {
		return nil, fmt.Errorf("proto must be json or binary, not %q", cfg.Proto)
	}
	// Capability discovery rides the JSON control plane; only the query
	// connections speak the dialect. Each class's example server seeds the
	// pool the server-class lookups draw from.
	var seeds [][]int64
	t, err := discover(cfg.Target, cfg.Wait, func(t *target) error {
		if proto.addr(t) == "" {
			return fmt.Errorf("target does not advertise a %s listener (start harvestd with -binary-addr or harvestrouter with -binary-listen)", cfg.Proto)
		}
		seeds = make([][]int64, len(t.datacenters))
		for i, dc := range t.datacenters {
			view, err := t.classes(dc)
			if err != nil {
				return err
			}
			for _, c := range view.Classes {
				if c.ExampleServer >= 0 {
					seeds[i] = append(seeds[i], c.ExampleServer)
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	depth := max(1, cfg.Pipeline)
	run, drained := make([]stats, cfg.Workers), make([]stats, cfg.Workers)
	// Two barriers: measured closes the clock the moment every connection's
	// schedule and in-flight window finish; all additionally covers the lease
	// drain, which must not stretch the wall time QPS divides by.
	var measured, all sync.WaitGroup
	start := time.Now()
	deadline := start.Add(cfg.Duration)
	for i := 0; i < cfg.Workers; i++ {
		c := &conn{
			addr: proto.addr(t),
			// Frame id i+1: nonzero and unique per connection, so a binary
			// connection's requests can be told apart in /debug/traces.
			d:       proto.new(uint64(i + 1)),
			dcs:     t.datacenters,
			st:      newStream(cfg.Seed, i, m, len(t.datacenters)),
			depth:   depth,
			stats:   &run[i],
			held:    make([][]uint64, len(t.datacenters)),
			servers: make([][]int64, len(t.datacenters)),
		}
		for dc, s := range seeds {
			c.servers[dc] = append([]int64(nil), s...)
		}
		measured.Add(1)
		all.Add(1)
		go func(i int) {
			defer all.Done()
			if cfg.Rate > 0 {
				// Connection i owns ticks i, i+W, i+2W, … of the global 1/rate
				// grid, so the union is exactly Rate requests/second.
				perTick := float64(time.Second) / cfg.Rate
				c.runOpen(start.Add(time.Duration(float64(i)*perTick)), deadline, time.Duration(float64(cfg.Workers)*perTick))
			} else {
				c.runClosed(deadline)
			}
			measured.Done()
			c.stats = &drained[i]
			c.drain()
		}(i)
	}
	measured.Wait()
	elapsed := time.Since(start)
	all.Wait()

	rep := &Report{
		Mode: "closed-loop", Proto: cfg.Proto, Target: t.baseURL, Mix: cfg.Mix, Seed: cfg.Seed,
		DurationSeconds: elapsed.Seconds(), Workers: cfg.Workers, Pipeline: depth,
		Ops: make(map[string]OpStat, numOpKinds),
	}
	if cfg.Rate > 0 {
		rep.Mode, rep.TargetRate = "open-loop", cfg.Rate
	}
	var latency obs.Histogram
	for i := range run {
		st := &run[i]
		for k, name := range opNames {
			s := rep.Ops[name]
			s.Requests += st.requests[k]
			s.Errors += st.errors[k]
			rep.Ops[name] = s
			rep.Requests += st.requests[k]
			rep.Errors += st.errors[k]
		}
		rep.Reconnects += st.transport.Load() + drained[i].transport.Load()
		latency.Merge(&st.latency)
		if st.trace[0] != 0 {
			rep.TraceSample = string(st.trace[:])
		}
		for j, name := range st.backends.names {
			if rep.Backends == nil {
				rep.Backends = make(map[string]uint64)
			}
			rep.Backends[name] += st.backends.counts[j]
		}
	}
	rep.QPS = float64(rep.Requests) / elapsed.Seconds()
	rep.LatencyUs = Latency{
		Mean: latency.MeanMicros(),
		P50:  latency.QuantileMicros(0.50),
		P90:  latency.QuantileMicros(0.90),
		P99:  latency.QuantileMicros(0.99),
		Max:  latency.MaxMicros(),
	}
	return rep, nil
}
