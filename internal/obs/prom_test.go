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
