package obs

import (
	"net/http"
	"strconv"

	"harvest/internal/httpjson"
)

// PromContentType is the exposition-format content type (text format 0.0.4).
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// promContentType is shared by every reply: net/http only reads it.
var promContentType = []string{PromContentType}

// Prom accumulates Prometheus text exposition, one buffer per metric family:
// a series lands in its family's buffer whenever it is written, and Bytes
// prints the buffers in first-touched order, each under its one HELP/TYPE
// header — so every family is one contiguous group however the walk
// (promwalk.go) interleaves its writes. Its storage is kept across reset, so
// a reused Prom renders without allocating.
type Prom struct {
	fams  []promFamily // by family number (see familyNumber)
	order []int32      // family numbers, first touched first
	lab   []byte       // the label set the walk is in, outermost first
	out   []byte
	maps  sorter
}

type promFamily struct {
	name, typ, help string // name is "" until the family is touched
	series          []byte
}

// touch returns family n, named name, placing it in the output order.
func (p *Prom) touch(n int32, name string) *promFamily {
	if int(n) >= len(p.fams) {
		p.fams = append(p.fams, make([]promFamily, int(n)+1-len(p.fams))...)
	}
	f := &p.fams[n]
	if f.name == "" {
		f.name = name
		p.order = append(p.order, n)
	}
	return f
}

// declare gives f its header unless an earlier declaration did.
func (f *promFamily) declare(typ, help string) {
	if f.typ == "" {
		f.typ, f.help = typ, help
	}
}

// reset empties p for the next exposition, keeping its storage.
func (p *Prom) reset() {
	for _, n := range p.order {
		p.fams[n] = promFamily{series: p.fams[n].series[:0]}
	}
	p.order, p.lab = p.order[:0], p.lab[:0]
}

// appendLabel appends name="value" to a label set, escaping the value.
func appendLabel(b []byte, name, value string) []byte {
	if len(b) > 0 {
		b = append(b, ',')
	}
	b = append(append(b, name...), `="`...)
	for i := 0; i < len(value); i++ {
		switch c := value[i]; c {
		case '\\':
			b = append(b, `\\`...)
		case '"':
			b = append(b, `\"`...)
		case '\n':
			b = append(b, `\n`...)
		default:
			b = append(b, c)
		}
	}
	return append(b, '"')
}

// key starts one series of family f under the family's own name plus suffix
// (a histogram's _bucket, _sum or _count), up to the value.
func (f *promFamily) key(suffix string, labels []byte) []byte {
	b := append(append(f.series, f.name...), suffix...)
	if len(labels) > 0 {
		b = append(append(append(b, '{'), labels...), '}')
	}
	return append(b, ' ')
}

func (f *promFamily) number(labels []byte, v any) {
	b := f.key("", labels)
	switch v := v.(type) {
	case int64:
		b = strconv.AppendInt(b, v, 10)
	case uint64:
		b = strconv.AppendUint(b, v, 10)
	case float64:
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
	}
	f.series = append(b, '\n')
}

// leBounds are the `le` label values, in microseconds and in seconds, with
// +Inf last.
var leBounds = func() (le [2][HistBuckets + 1]string) {
	for i := 0; i < HistBuckets; i++ {
		us := BucketUpperMicros(i)
		le[0][i] = strconv.FormatUint(us, 10)
		le[1][i] = strconv.FormatFloat(float64(us)/1e6, 'g', -1, 64)
	}
	le[0][HistBuckets], le[1][HistBuckets] = "+Inf", "+Inf"
	return le
}()

// histogram writes the full cumulative `le` bucket series plus _sum and
// _count for one power-of-two latency histogram. Units are microseconds (the
// histogram's native resolution): bucket i's inclusive upper bound is 2^i - 1
// µs, so the `le` bounds are exact for whole-microsecond samples — every
// sample in buckets 0..i is ≤ le_i and every sample above is > le_i. The le
// label goes after labels. With seconds set, bounds and sum are in seconds,
// for metrics named *_seconds: the microsecond bounds divided by 1e6, as
// exact as a float64 prints.
func (f *promFamily) histogram(labels []byte, h *Histogram, seconds bool) {
	le := &leBounds[0]
	if seconds {
		le = &leBounds[1]
	}
	var counts [HistBuckets]uint64
	h.BucketCounts(counts[:0])
	var cum uint64
	for i := range le {
		if i < HistBuckets {
			cum += counts[i]
		}
		b := append(append(f.series, f.name...), "_bucket{"...)
		if len(labels) > 0 {
			b = append(append(b, labels...), ',')
		}
		b = append(append(append(b, `le="`...), le[i]...), `"} `...)
		f.series = append(strconv.AppendUint(b, cum, 10), '\n')
	}
	b := f.key("_sum", labels)
	if seconds {
		b = strconv.AppendFloat(b, float64(h.SumMicros())/1e6, 'g', -1, 64)
	} else {
		b = strconv.AppendUint(b, h.SumMicros(), 10)
	}
	f.series = append(b, '\n')
	// The +Inf bucket and _count are the same reading of the same buckets, so
	// they agree even while observations land.
	f.series = append(strconv.AppendUint(f.key("_count", labels), cum, 10), '\n')
}

// Bytes returns the accumulated exposition, in storage p reuses: it is valid
// until p's next write.
func (p *Prom) Bytes() []byte {
	p.out = p.out[:0]
	for _, n := range p.order {
		f := &p.fams[n]
		if f.typ != "" {
			p.out = append(append(append(append(p.out, "# HELP "...), f.name...), ' '), f.help...)
			p.out = append(append(append(append(append(p.out, "\n# TYPE "...), f.name...), ' '), f.typ...), '\n')
		}
		p.out = append(p.out, f.series...)
	}
	return p.out
}

// Reply answers a scrape with the accumulated exposition, in one write with
// its Content-Length.
func (p *Prom) Reply(w http.ResponseWriter) {
	httpjson.Reply(w, http.StatusOK, promContentType, p.Bytes())
}
