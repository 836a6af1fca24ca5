package obs

import (
	"bytes"
	"strconv"
	"strings"
)

// PromContentType is the exposition-format content type (text format 0.0.4).
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// Prom accumulates Prometheus text exposition. It is a formatting helper,
// not a registry: callers walk their own stats structures and emit series in
// whatever order they like, writing each metric's HELP/TYPE header once via
// Metric and then any number of series. The JSON /metrics shape is the
// source of truth; this is the same data re-rendered for a scraper.
type Prom struct {
	buf bytes.Buffer
}

// Metric writes the # HELP and # TYPE header for a metric family.
// typ is "counter", "gauge", or "histogram".
func (p *Prom) Metric(name, typ, help string) {
	p.buf.WriteString("# HELP ")
	p.buf.WriteString(name)
	p.buf.WriteByte(' ')
	p.buf.WriteString(help)
	p.buf.WriteString("\n# TYPE ")
	p.buf.WriteString(name)
	p.buf.WriteByte(' ')
	p.buf.WriteString(typ)
	p.buf.WriteByte('\n')
}

// Labels renders a label set from key/value pairs, escaping values. The
// result (e.g. `dc="DC-9",op="select"`) is passed to the series writers; an
// empty string means no labels.
func Labels(kv ...string) string {
	if len(kv) == 0 {
		return ""
	}
	var b strings.Builder
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		escapeLabel(&b, kv[i+1])
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabel(b *strings.Builder, v string) {
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(c)
		}
	}
}

func (p *Prom) series(name, labels string) {
	p.buf.WriteString(name)
	if labels != "" {
		p.buf.WriteByte('{')
		p.buf.WriteString(labels)
		p.buf.WriteByte('}')
	}
	p.buf.WriteByte(' ')
}

// Uint writes one series with an unsigned integer value.
func (p *Prom) Uint(name, labels string, v uint64) {
	p.series(name, labels)
	p.buf.Write(strconv.AppendUint(p.scratch(), v, 10))
	p.buf.WriteByte('\n')
}

// Int writes one series with a signed integer value.
func (p *Prom) Int(name, labels string, v int64) {
	p.series(name, labels)
	p.buf.Write(strconv.AppendInt(p.scratch(), v, 10))
	p.buf.WriteByte('\n')
}

// Float writes one series with a float value.
func (p *Prom) Float(name, labels string, v float64) {
	p.series(name, labels)
	p.buf.Write(strconv.AppendFloat(p.scratch(), v, 'g', -1, 64))
	p.buf.WriteByte('\n')
}

// Histogram writes the full cumulative `le` bucket series plus _sum and
// _count for one power-of-two latency histogram. Units are microseconds
// (the histogram's native resolution): bucket i's inclusive upper bound is
// 2^i - 1 µs, so the `le` bounds are exact for whole-microsecond samples —
// every sample in buckets 0..i is ≤ le_i and every sample above is > le_i.
// extraLabels is appended after the le label's comma handling (may be "").
func (p *Prom) Histogram(name, extraLabels string, h *Histogram) {
	p.histogram(name, extraLabels, h, func(us uint64) string { return strconv.FormatUint(us, 10) })
}

// HistogramSeconds writes the same histogram with its bounds and sum in
// seconds, for metrics named *_seconds. The bounds are the microsecond ones
// divided by 1e6, so they are as exact as a float64 prints.
func (p *Prom) HistogramSeconds(name, extraLabels string, h *Histogram) {
	p.histogram(name, extraLabels, h, func(us uint64) string {
		return strconv.FormatFloat(float64(us)/1e6, 'g', -1, 64)
	})
}

func (p *Prom) histogram(name, extraLabels string, h *Histogram, unit func(us uint64) string) {
	var counts [HistBuckets]uint64
	h.BucketCounts(counts[:0])
	var cum uint64
	for i := 0; i < HistBuckets; i++ {
		cum += counts[i]
		p.bucket(name, extraLabels, unit(BucketUpperMicros(i)), cum)
	}
	p.bucket(name, extraLabels, "+Inf", cum)
	p.series(name+"_sum", extraLabels)
	p.buf.WriteString(unit(h.SumMicros()))
	p.buf.WriteByte('\n')
	p.Uint(name+"_count", extraLabels, h.Count())
}

func (p *Prom) bucket(name, extraLabels, le string, cum uint64) {
	labels := `le="` + le + `"`
	if extraLabels != "" {
		labels = extraLabels + "," + labels
	}
	p.Uint(name+"_bucket", labels, cum)
}

func (p *Prom) scratch() []byte { return make([]byte, 0, 24) }

// Bytes returns the accumulated exposition.
func (p *Prom) Bytes() []byte { return p.buf.Bytes() }
