package obs

import "reflect"

// walk renders stats value v of plan n as Prometheus series; see WriteMetrics
// for the tags. Without emit it only declares the families it meets.
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
