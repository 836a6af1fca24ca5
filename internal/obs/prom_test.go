package obs

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestPromHistogramGolden pins the exact `le` rendering of a histogram
// family: cumulative buckets at the 2^i-1 integer-microsecond bounds, the
// +Inf bucket, then _sum and _count. A change to this format breaks every
// scraper config, so the expected text is spelled out rather than derived
// from the same code under test.
func TestPromHistogramGolden(t *testing.T) {
	var h Histogram
	h.Observe(1 * time.Microsecond)   // bucket 1 (le="1")
	h.Observe(3 * time.Microsecond)   // bucket 2 (le="3")
	h.Observe(100 * time.Microsecond) // bucket 7 (le="127")

	var p Prom
	p.Metric("m", "histogram", "help text")
	p.Histogram("m", Labels("op", "select"), &h)
	got := string(p.Bytes())

	var want strings.Builder
	want.WriteString("# HELP m help text\n# TYPE m histogram\n")
	cum := 0
	for i := 0; i < HistBuckets; i++ {
		switch i {
		case 1:
			cum = 1
		case 2:
			cum = 2
		case 7:
			cum = 3
		}
		fmt.Fprintf(&want, "m_bucket{op=\"select\",le=\"%d\"} %d\n", BucketUpperMicros(i), cum)
	}
	want.WriteString(`m_bucket{op="select",le="+Inf"} 3` + "\n")
	want.WriteString(`m_sum{op="select"} 104` + "\n")
	want.WriteString(`m_count{op="select"} 3` + "\n")
	if got != want.String() {
		t.Fatalf("histogram rendering drifted:\ngot:\n%s\nwant:\n%s", got, want.String())
	}

	// The same histogram under a *_seconds name: bounds and sum divided by
	// 1e6, counts untouched.
	var ps Prom
	ps.HistogramSeconds("s", "", &h)
	for _, line := range []string{
		`s_bucket{le="0"} 0`,
		`s_bucket{le="1e-06"} 1`,
		`s_bucket{le="3e-06"} 2`,
		`s_bucket{le="0.000127"} 3`,
		`s_bucket{le="2147.483647"} 3`,
		`s_bucket{le="+Inf"} 3`,
		`s_sum 0.000104`,
		`s_count 3`,
	} {
		if !strings.Contains(string(ps.Bytes()), line+"\n") {
			t.Fatalf("seconds rendering missing %q:\n%s", line, ps.Bytes())
		}
	}

	// Spot-pin the load-bearing lines so a future refactor of the loop above
	// cannot silently agree with a broken implementation.
	for _, line := range []string{
		`m_bucket{op="select",le="0"} 0`,
		`m_bucket{op="select",le="1"} 1`,
		`m_bucket{op="select",le="3"} 2`,
		`m_bucket{op="select",le="127"} 3`,
		`m_bucket{op="select",le="2147483647"} 3`,
		`m_bucket{op="select",le="+Inf"} 3`,
	} {
		if !strings.Contains(got, line+"\n") {
			t.Fatalf("rendering missing %q:\n%s", line, got)
		}
	}
}

// TestPromHistogramCumulative checks the bucket series is monotone
// non-decreasing and ends at _count — the invariant the CI smoke job asserts
// against the live daemons.
func TestPromHistogramCumulative(t *testing.T) {
	var h Histogram
	for i := 0; i < 1000; i++ {
		h.Observe(time.Duration(i%977) * time.Microsecond)
	}
	var p Prom
	p.Histogram("lat", "", &h)
	var prev uint64
	var infVal uint64
	for _, line := range strings.Split(strings.TrimSpace(string(p.Bytes())), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || !strings.HasPrefix(name, "lat_bucket") {
			continue
		}
		n, err := strconv.ParseUint(val, 10, 64)
		if err != nil {
			t.Fatalf("bad bucket value in %q: %v", line, err)
		}
		if n < prev {
			t.Fatalf("bucket series not cumulative at %q (prev %d)", line, prev)
		}
		prev = n
		infVal = n
	}
	if infVal != h.Count() {
		t.Fatalf("+Inf bucket %d != count %d", infVal, h.Count())
	}
}

func TestPromLabelsEscaping(t *testing.T) {
	got := Labels("dc", "a\"b\\c\nd", "op", "select")
	want := `dc="a\"b\\c\nd",op="select"`
	if got != want {
		t.Fatalf("Labels = %q, want %q", got, want)
	}
	if Labels() != "" {
		t.Fatalf("Labels() should be empty")
	}
}

func TestPromScalarSeries(t *testing.T) {
	var p Prom
	p.Metric("up", "gauge", "Is it up.")
	p.Uint("up", "", 1)
	p.Int("delta", Labels("dc", "DC-9"), -4)
	p.Float("ratio", "", 0.25)
	got := string(p.Bytes())
	want := "# HELP up Is it up.\n# TYPE up gauge\nup 1\ndelta{dc=\"DC-9\"} -4\nratio 0.25\n"
	if got != want {
		t.Fatalf("scalar rendering:\ngot  %q\nwant %q", got, want)
	}
}

// TestPromWalk pins the tag grammar on a miniature stats value: what each Go
// type renders, how labels accumulate, which families are declared with no
// series to show, and that one family's series stay together however the
// struct interleaves them.
func TestPromWalk(t *testing.T) {
	type row struct {
		EndpointStats
		_ struct{} `prom:"t_requests_total,counter,of=Requests" help:"Requests."`
		_ struct{} `prom:"t_latency_us,histogram,of=Latency" help:"Latency."`
	}
	type shard struct {
		Gen      uint64     `json:"gen" prom:"t_gen,gauge" help:"Generation."`
		Drift    float64    `prom:"t_drift,gauge,omitzero" help:"Drift."`
		Floors   []int64    `prom:"t_floor,gauge" labels:"class" help:"Floor."`
		In       uint64     `prom:"t_changed_total,counter" labels:"kind=in" help:"Changed."`
		Out      uint64     `prom:"t_changed_total" labels:"kind=out"`
		Build    *Histogram `json:"-" prom:"t_build_seconds,histogram,seconds" help:"Build."`
		Untagged int
	}
	type section struct {
		Open bool `prom:"t_open,gauge" help:"Open."`
	}
	type stats struct {
		Up      float64           `prom:"t_up,gauge" help:"Up."`
		Rows    map[string]row    `labels:"endpoint,dialect=json"`
		Absent  *section          // nil: nothing of it appears
		Present *section          //
		Applied map[string]uint64 `prom:"t_applied,gauge" labels:"dc" help:"Applied."`
		Shards  map[string]shard  `labels:"dc"`
		Empty   map[string]section
		Raw     map[string][]byte // not a metric; must be walked past
	}
	var m EndpointMetrics
	m.Observe(3*time.Microsecond, 200)
	var build Histogram
	build.Observe(time.Microsecond)

	var p Prom
	p.Walk(stats{
		Up:      1.5,
		Rows:    map[string]row{"select": {EndpointStats: m.Stats()}, "place": {}},
		Present: &section{Open: true},
		Shards: map[string]shard{
			"DC-9": {Gen: 7, Drift: 0.25, Floors: []int64{0, 500}, In: 1, Out: 2, Build: &build},
			"DC-3": {Gen: 4},
		},
		Raw: map[string][]byte{"x": []byte("{}")},
	})
	p.Metric("t_role", "gauge", "Role.")
	p.Uint("t_role", Labels("node", `a"b`), 1)

	var got []string
	for _, line := range strings.Split(strings.TrimSpace(string(p.Bytes())), "\n") {
		if !strings.Contains(line, "_bucket{") {
			got = append(got, line)
		}
	}
	want := []string{
		"# HELP t_up Up.", "# TYPE t_up gauge", "t_up 1.5",
		"# HELP t_requests_total Requests.", "# TYPE t_requests_total counter",
		`t_requests_total{endpoint="place",dialect="json"} 0`,
		`t_requests_total{endpoint="select",dialect="json"} 1`,
		"# HELP t_latency_us Latency.", "# TYPE t_latency_us histogram",
		`t_latency_us_sum{endpoint="select",dialect="json"} 3`,
		`t_latency_us_count{endpoint="select",dialect="json"} 1`,
		"# HELP t_open Open.", "# TYPE t_open gauge", "t_open 1",
		"# HELP t_applied Applied.", "# TYPE t_applied gauge",
		"# HELP t_gen Generation.", "# TYPE t_gen gauge", `t_gen{dc="DC-3"} 4`, `t_gen{dc="DC-9"} 7`,
		"# HELP t_drift Drift.", "# TYPE t_drift gauge", `t_drift{dc="DC-9"} 0.25`,
		"# HELP t_floor Floor.", "# TYPE t_floor gauge", `t_floor{dc="DC-9",class="1"} 500`,
		"# HELP t_changed_total Changed.", "# TYPE t_changed_total counter",
		`t_changed_total{dc="DC-3",kind="in"} 0`, `t_changed_total{dc="DC-3",kind="out"} 0`,
		`t_changed_total{dc="DC-9",kind="in"} 1`, `t_changed_total{dc="DC-9",kind="out"} 2`,
		"# HELP t_build_seconds Build.", "# TYPE t_build_seconds histogram",
		`t_build_seconds_sum{dc="DC-9"} 1e-06`, `t_build_seconds_count{dc="DC-9"} 1`,
		"# HELP t_role Role.", "# TYPE t_role gauge", `t_role{node="a\"b"} 1`,
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("walk rendered:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	if n := strings.Count(string(p.Bytes()), "t_build_seconds_bucket{"); n != HistBuckets+1 {
		t.Fatalf("%d build buckets, want %d", n, HistBuckets+1)
	}
}
