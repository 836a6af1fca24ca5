package obs

import "reflect"

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
//   - integer, float64 or bool (0/1): one series;
//   - *Histogram: the le bucket series with _sum and _count; nil renders none;
//   - map[string]number: one series per key;
//   - struct, *struct, map[string]struct: the fields inside, untagged ones
//     descended into too; a nil pointer is a section that is absent.
//
// A slice, or a type with its own JSON or text form, is not a metric. In the
// labels tag a bare name is the label that takes the map key, and name=value
// is a constant; labels accumulate outermost first, in the order written. Map
// keys render sorted. Every family reachable through non-nil pointers is
// declared even when it has no series to show (an empty map declares its
// element's families), so HELP/TYPE do not come and go with the data. The
// tags are read once per type (plan.go), so WriteMetrics, which walks a
// pointer into a pooled Prom, renders without allocating.
func (p *Prom) Walk(stats any) {
	v := reflect.ValueOf(stats)
	p.walk(planOf(v.Type()), v, true)
}

func (p *Prom) walk(n *node, v reflect.Value, emit bool) {
	if n.kind == kindPointer {
		if v.IsNil() {
			return
		}
		n, v = n.elem, v.Elem()
	}
	if n.kind != kindStruct {
		return
	}
	for i := range n.prom {
		f := &n.prom[i]
		fv, err := v.FieldByIndexErr(f.index)
		if err != nil {
			continue
		}
		if f.typ != "" {
			p.touch(f.family, f.name).declare(f.typ, f.help)
		}
		mark := len(p.lab)
		switch f.node.kind {
		case kindMap:
			if fv.Len() == 0 { // declares its element's families
				p.value(f, f.node.elem, reflect.Zero(fv.Type().Elem()), false)
				continue
			}
			st := p.maps.load(f.node, fv)
			for j := range st.entries {
				p.labelled(f, st.entries[j].key)
				p.value(f, f.node.elem, st.value(j), emit)
				p.lab = p.lab[:mark]
			}
			st.release()
		default:
			p.labelled(f, "")
			p.value(f, f.node, fv, emit)
			p.lab = p.lab[:mark]
		}
	}
}

// labelled extends the label set with the field's own, key standing in for
// the bare name.
func (p *Prom) labelled(f *promField, key string) {
	for _, l := range f.labels {
		if l.key {
			p.lab = appendLabel(p.lab, l.name, key)
		} else {
			p.lab = appendLabel(p.lab, l.name, l.value)
		}
	}
}

// value renders one field value (or map element) of kind n under the label
// set.
func (p *Prom) value(f *promField, n *node, v reflect.Value, emit bool) {
	switch n.kind {
	case kindHist:
		if f.family >= 0 && emit && !v.IsNil() {
			p.touch(f.family, f.name).histogram(p.lab, (*Histogram)(v.UnsafePointer()), f.seconds)
		}
	case kindStruct, kindPointer:
		p.walk(n, v, emit)
	case kindInt, kindUint, kindFloat, kindBool:
		if f.family < 0 || !emit || f.omitzero && v.IsZero() {
			return
		}
		fam := p.touch(f.family, f.name)
		switch n.kind {
		case kindInt:
			fam.number(p.lab, v.Int())
		case kindUint:
			fam.number(p.lab, v.Uint())
		case kindFloat:
			fam.number(p.lab, v.Float())
		default:
			var b uint64
			if v.Bool() {
				b = 1
			}
			fam.number(p.lab, b)
		}
	}
}
