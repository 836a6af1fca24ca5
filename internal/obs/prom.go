package obs

import (
	"bytes"
	"net/http"
	"strconv"
	"strings"
)

// PromContentType is the exposition-format content type (text format 0.0.4).
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// Prom accumulates Prometheus text exposition, one bucket per metric family:
// a series lands in its family's bucket whenever it is written, and Bytes
// prints the buckets in first-seen order, each under its one HELP/TYPE
// header — so every family is one contiguous group however the caller
// interleaves its writes. Walk (promwalk.go) fills it from a tagged stats
// value; the series writers below are for the few lines no field can spell.
type Prom struct {
	families map[string]*promFamily
	order    []*promFamily
}

type promFamily struct {
	name, typ, help string
	series          bytes.Buffer
}

func (p *Prom) family(name string) *promFamily {
	f := p.families[name]
	if f == nil {
		if p.families == nil {
			p.families = make(map[string]*promFamily)
		}
		f = &promFamily{name: name}
		p.families[name] = f
		p.order = append(p.order, f)
	}
	return f
}

// Metric declares a family's type ("counter", "gauge" or "histogram") and
// help text. The first declaration stands; a family never declared prints
// its series without a header.
func (p *Prom) Metric(name, typ, help string) {
	if f := p.family(name); f.typ == "" {
		f.typ, f.help = typ, help
	}
}

// Labels renders a label set from key/value pairs, escaping values. The
// result (e.g. `dc="DC-9",op="select"`) is passed to the series writers; an
// empty string means no labels.
func Labels(kv ...string) string {
	var b strings.Builder
	for i := 0; i+1 < len(kv); i += 2 {
		appendLabel(&b, kv[i], kv[i+1])
	}
	return b.String()
}

func appendLabel(b *strings.Builder, name, value string) {
	if b.Len() > 0 {
		b.WriteByte(',')
	}
	b.WriteString(name)
	b.WriteString(`="`)
	for i := 0; i < len(value); i++ {
		switch c := value[i]; c {
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
	b.WriteByte('"')
}

// line writes one series of family f under the given name (the family's own,
// or a histogram's _bucket/_sum/_count) with an already-formatted value.
func (f *promFamily) line(suffix, labels, value string) {
	f.series.WriteString(f.name)
	f.series.WriteString(suffix)
	if labels != "" {
		f.series.WriteByte('{')
		f.series.WriteString(labels)
		f.series.WriteByte('}')
	}
	f.series.WriteByte(' ')
	f.series.WriteString(value)
	f.series.WriteByte('\n')
}

// Uint writes one series with an unsigned integer value.
func (p *Prom) Uint(name, labels string, v uint64) {
	p.family(name).line("", labels, strconv.FormatUint(v, 10))
}

// Int writes one series with a signed integer value.
func (p *Prom) Int(name, labels string, v int64) {
	p.family(name).line("", labels, strconv.FormatInt(v, 10))
}

// Float writes one series with a float value.
func (p *Prom) Float(name, labels string, v float64) {
	p.family(name).line("", labels, strconv.FormatFloat(v, 'g', -1, 64))
}

// Histogram writes the full cumulative `le` bucket series plus _sum and
// _count for one power-of-two latency histogram. Units are microseconds
// (the histogram's native resolution): bucket i's inclusive upper bound is
// 2^i - 1 µs, so the `le` bounds are exact for whole-microsecond samples —
// every sample in buckets 0..i is ≤ le_i and every sample above is > le_i.
// The le label goes after extraLabels (which may be "").
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
	f := p.family(name)
	le := `le="`
	if extraLabels != "" {
		le = extraLabels + `,le="`
	}
	var counts [HistBuckets]uint64
	h.BucketCounts(counts[:0])
	var cum uint64
	for i := 0; i < HistBuckets; i++ {
		cum += counts[i]
		f.line("_bucket", le+unit(BucketUpperMicros(i))+`"`, strconv.FormatUint(cum, 10))
	}
	f.line("_bucket", le+`+Inf"`, strconv.FormatUint(cum, 10))
	f.line("_sum", extraLabels, unit(h.SumMicros()))
	// The +Inf bucket and _count are the same reading of the same buckets, so
	// they agree even while observations land.
	f.line("_count", extraLabels, strconv.FormatUint(cum, 10))
}

// Bytes returns the accumulated exposition.
func (p *Prom) Bytes() []byte {
	var out bytes.Buffer
	for _, f := range p.order {
		if f.typ != "" {
			out.WriteString("# HELP " + f.name + " " + f.help + "\n# TYPE " + f.name + " " + f.typ + "\n")
		}
		out.Write(f.series.Bytes())
	}
	return out.Bytes()
}

// Reply answers a scrape with the accumulated exposition.
func (p *Prom) Reply(w http.ResponseWriter) {
	w.Header().Set("Content-Type", PromContentType)
	w.Write(p.Bytes())
}
