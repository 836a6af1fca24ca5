package obs

import (
	"reflect"
	"sort"
	"strings"
)

// Walk renders a /metrics stats value — the same value the JSON exposition
// marshals — as Prometheus series. A metric is one struct field carrying,
// beside its json tag,
//
//	prom:"family,type[,option…]" help:"text" labels:"name[=value],…"
//
// Type is counter, gauge or histogram; help is the HELP line. Siblings that
// share a family and differ by a constant label declare type and help on the
// first and only the family on the rest. Options: omitzero drops a zero
// value, seconds renders a histogram's bounds in seconds, and of=Field (on a
// blank `_` field) reads the value from the named field of the same struct,
// promoted ones included — how a tier puts its own family names on a shared
// row it embeds. What a field renders follows from its Go type:
//
//   - integer, float or bool (0/1): one series;
//   - *Histogram: the le bucket series with _sum and _count; nil renders none;
//   - map[string]number: one series per key;
//   - struct, *struct, map[string]struct: the fields inside, untagged ones
//     descended into too; a nil pointer is a section that is absent.
//
// A slice is not a metric. In the labels tag a bare name is the label that
// takes the map key, and name=value is a constant; labels accumulate
// outermost first, in the order written. Map keys render sorted. Every family
// reachable through non-nil pointers is declared even when it has no series
// to show (an empty map declares its element's families), so HELP/TYPE do
// not come and go with the data.
func (p *Prom) Walk(stats any) { p.walk(reflect.ValueOf(stats), "", true) }

// promField is one field's parsed tags.
type promField struct {
	family, typ, help string
	omitzero, seconds bool
	of                string
	labels            []string // "name" (takes the key) or "name=value"
}

func parsePromField(sf reflect.StructField) promField {
	var f promField
	f.help = sf.Tag.Get("help")
	if l := sf.Tag.Get("labels"); l != "" {
		f.labels = strings.Split(l, ",")
	}
	parts := strings.Split(sf.Tag.Get("prom"), ",")
	f.family = parts[0]
	for i, opt := range parts[1:] {
		switch {
		case i == 0:
			f.typ = opt
		case opt == "omitzero":
			f.omitzero = true
		case opt == "seconds":
			f.seconds = true
		case strings.HasPrefix(opt, "of="):
			f.of = opt[len("of="):]
		}
	}
	return f
}

// labelled extends an enclosing label set with the field's own, key standing
// in for the bare name.
func (f *promField) labelled(outer, key string) string {
	if len(f.labels) == 0 {
		return outer
	}
	var b strings.Builder
	b.WriteString(outer)
	for _, l := range f.labels {
		if name, value, constant := strings.Cut(l, "="); constant {
			appendLabel(&b, name, value)
		} else {
			appendLabel(&b, name, key)
		}
	}
	return b.String()
}

func (p *Prom) walk(v reflect.Value, labels string, emit bool) {
	if v.Kind() == reflect.Pointer {
		if v.IsNil() {
			return
		}
		v = v.Elem()
	}
	if v.Kind() != reflect.Struct {
		return
	}
	for i, t := 0, v.Type(); i < t.NumField(); i++ {
		sf := t.Field(i)
		f := parsePromField(sf)
		fv := v.Field(i)
		if f.of != "" {
			fv = v.FieldByName(f.of)
		} else if !sf.IsExported() {
			continue
		}
		if f.family != "" && f.typ != "" {
			p.Metric(f.family, f.typ, f.help)
		}
		switch fv.Kind() {
		case reflect.Map:
			keys := fv.MapKeys()
			sort.Slice(keys, func(a, b int) bool { return keys[a].String() < keys[b].String() })
			for _, k := range keys {
				p.value(&f, fv.MapIndex(k), f.labelled(labels, k.String()), emit)
			}
			if len(keys) == 0 {
				p.value(&f, reflect.Zero(fv.Type().Elem()), labels, false)
			}
		case reflect.Slice: // not a metric ([]byte, a list of names)
		default:
			p.value(&f, fv, f.labelled(labels, ""), emit)
		}
	}
}

// value renders one field value (or map or slice element) under its labels.
func (p *Prom) value(f *promField, v reflect.Value, labels string, emit bool) {
	if h, ok := v.Interface().(*Histogram); ok {
		switch {
		case f.family == "" || !emit || h == nil:
		case f.seconds:
			p.HistogramSeconds(f.family, labels, h)
		default:
			p.Histogram(f.family, labels, h)
		}
		return
	}
	if k := v.Kind(); k == reflect.Struct || k == reflect.Pointer {
		p.walk(v, labels, emit)
		return
	}
	if f.family == "" || !emit || (f.omitzero && v.IsZero()) {
		return
	}
	switch {
	case v.CanInt():
		p.Int(f.family, labels, v.Int())
	case v.CanUint():
		p.Uint(f.family, labels, v.Uint())
	case v.CanFloat():
		p.Float(f.family, labels, v.Float())
	case v.Kind() == reflect.Bool:
		var n uint64
		if v.Bool() {
			n = 1
		}
		p.Uint(f.family, labels, n)
	}
}
