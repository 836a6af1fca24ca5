package obs

import (
	"encoding"
	"encoding/json"
	"reflect"
	"slices"
	"strings"
	"sync"

	"harvest/internal/httpjson"
)

// A plan is what one stats type's tags say, read once per type: for each
// struct, the fields encoding/json writes, in its order, and the fields the
// Prometheus walk visits. Both /metrics renderings walk a live value through it by field
// index, so a scrape parses no tag and boxes no value.
type node struct {
	kind nodeKind
	elem *node       // pointer, slice, map and array elements
	json []jsonField // struct
	prom []promField // struct
}

type nodeKind uint8

const (
	kindOther nodeKind = iota // encoding/json writes it; never a series
	kindBool
	kindInt
	kindUint
	kindFloat
	kindString
	kindRaw // json.RawMessage, written verbatim; kindRaw to kindMap can be nil
	kindHist
	kindPointer
	kindSlice
	kindMap   // string-keyed
	kindArray // fixed size: written as a slice is, never nil
	kindStruct
)

type jsonField struct {
	index     []int  // through embedded structs
	key       []byte // `"name":`
	omitempty bool
	rank      int // 2×depth, +1 untagged: the lowest of namesakes is written
	node      *node
}

type promField struct {
	index             []int // the field's own, or its of= target's
	node              *node
	family            int32 // -1: none
	name, typ, help   string
	omitzero, seconds bool
	labels            []promLabel
}

// promLabel is name=value, or (key) a bare name that takes the map key.
type promLabel struct {
	name, value string
	key         bool
}

// plans keeps every plan built, and numbers every family name a plan has
// met, so a scrape files a series by index.
var plans = struct {
	sync.Mutex
	nodes    map[reflect.Type]*node
	families map[string]int32
}{nodes: map[reflect.Type]*node{}, families: map[string]int32{}}

// planOf returns t's plan, built on the type's first scrape.
func planOf(t reflect.Type) *node {
	plans.Lock()
	defer plans.Unlock()
	return buildNode(t)
}

// familyNumber numbers a family name; plans' lock held.
func familyNumber(name string) int32 {
	n, ok := plans.families[name]
	if !ok {
		n = int32(len(plans.families))
		plans.families[name] = n
	}
	return n
}

func buildNode(t reflect.Type) *node {
	if n := plans.nodes[t]; n != nil {
		return n
	}
	n := &node{}
	plans.nodes[t] = n // before the fields, so a recursive type ends
	k := t.Kind()
	switch {
	case t == reflect.TypeFor[*Histogram]():
		n.kind, n.elem = kindHist, buildNode(t.Elem())
	case t == reflect.TypeFor[json.RawMessage]():
		n.kind = kindRaw
	case t.Implements(reflect.TypeFor[json.Marshaler]()) || t.Implements(reflect.TypeFor[encoding.TextMarshaler]()):
	case k == reflect.Bool:
		n.kind = kindBool
	case k >= reflect.Int && k <= reflect.Int64:
		n.kind = kindInt
	case k >= reflect.Uint && k <= reflect.Uintptr:
		n.kind = kindUint
	case k == reflect.Float64:
		n.kind = kindFloat
	case k == reflect.String:
		n.kind = kindString
	case k == reflect.Pointer:
		n.kind, n.elem = kindPointer, buildNode(t.Elem())
	case k == reflect.Slice && t.Elem().Kind() != reflect.Uint8:
		n.kind, n.elem = kindSlice, buildNode(t.Elem())
	case k == reflect.Map && t.Key().Kind() == reflect.String:
		n.kind, n.elem = kindMap, buildNode(t.Elem())
	case k == reflect.Array:
		n.kind, n.elem = kindArray, buildNode(t.Elem())
	case k == reflect.Struct:
		n.kind, n.json, n.prom = kindStruct, jsonFields(t, nil, nil), promFields(t)
	}
	return n
}

// jsonFields lists t's fields as encoding/json writes them: exported ones
// and, in their place, those of untagged embedded structs. Of namesakes the
// shallowest is written, a tagged one before an untagged, and none on a tie.
func jsonFields(t reflect.Type, index []int, out []jsonField) []jsonField {
	for i := 0; i < t.NumField(); i++ {
		sf, ft := t.Field(i), t.Field(i).Type
		if sf.Anonymous && ft.Kind() == reflect.Pointer {
			ft = ft.Elem()
		}
		tag := sf.Tag.Get("json")
		if tag == "-" || !sf.IsExported() && !(sf.Anonymous && ft.Kind() == reflect.Struct) {
			continue
		}
		name, opts, _ := strings.Cut(tag, ",")
		path := append(slices.Clip(index), i)
		if name == "" && sf.Anonymous && ft.Kind() == reflect.Struct {
			out = jsonFields(ft, path, out)
			continue
		}
		f := jsonField{index: path, node: buildNode(sf.Type), rank: 2 * len(index),
			omitempty: slices.Contains(strings.Split(opts, ","), "omitempty")}
		if name == "" {
			name, f.rank = sf.Name, f.rank+1
		}
		f.key = append(httpjson.AppendString(nil, name), ':')
		out = append(out, f)
	}
	if len(index) > 0 {
		return out
	}
	var kept []jsonField
	for _, f := range out {
		best, ties := true, 0
		for _, o := range out {
			if string(o.key) == string(f.key) {
				best = best && o.rank >= f.rank
				if o.rank == f.rank {
					ties++
				}
			}
		}
		if best && ties == 1 {
			kept = append(kept, f)
		}
	}
	return kept
}

// promFields reads t's prom, help and labels tags in field order.
func promFields(t reflect.Type) []promField {
	var out []promField
	for i := 0; i < t.NumField(); i++ {
		sf := t.Field(i)
		family, opts, _ := strings.Cut(sf.Tag.Get("prom"), ",")
		f := promField{index: sf.Index, family: -1, name: family, help: sf.Tag.Get("help")}
		if l := sf.Tag.Get("labels"); l != "" {
			for _, l := range strings.Split(l, ",") {
				name, value, constant := strings.Cut(l, "=")
				f.labels = append(f.labels, promLabel{name, value, !constant})
			}
		}
		of := false
		for j, opt := range strings.Split(opts, ",") {
			switch target, isOf := strings.CutPrefix(opt, "of="); {
			case j == 0:
				f.typ = opt
			case opt == "omitzero":
				f.omitzero = true
			case opt == "seconds":
				f.seconds = true
			case isOf:
				tf, ok := t.FieldByName(target)
				if !ok {
					panic("obs: " + t.String() + "." + sf.Name + " reads no field " + target)
				}
				f.index, sf, of = tf.Index, tf, true
			}
		}
		if !of && !sf.IsExported() {
			continue
		}
		if family != "" {
			f.family = familyNumber(family)
		} else {
			f.typ = ""
		}
		f.node = buildNode(sf.Type)
		out = append(out, f)
	}
	return out
}

// mapStore holds one map's entries in key order: the values are copied out
// through the iterator into storage kept between scrapes, as indexing a map
// boxes the key and copies the value to the heap.
type mapStore struct {
	iter    reflect.MapIter
	key     reflect.Value
	vals    reflect.Value // a slice of the element type
	entries []mapEntry
	busy    bool
}

type mapEntry struct {
	key string
	i   int
}

// sorter keeps one renderer's mapStore per map type.
type sorter map[*node]*mapStore

// load reads m's entries in key order into the store for n, the caller's
// until release; a map nested in a map of its own type gets a fresh store.
func (s *sorter) load(n *node, m reflect.Value) *mapStore {
	st := (*s)[n]
	if st == nil || st.busy {
		st = &mapStore{key: reflect.New(m.Type().Key()).Elem()}
		if *s == nil {
			*s = make(sorter)
		}
		if (*s)[n] == nil {
			(*s)[n] = st
		}
	}
	st.busy = true
	if l := m.Len(); !st.vals.IsValid() || st.vals.Len() < l {
		st.vals = reflect.MakeSlice(reflect.SliceOf(m.Type().Elem()), l, l)
	}
	st.entries = st.entries[:0]
	st.iter.Reset(m)
	for i := 0; st.iter.Next(); i++ {
		st.key.SetIterKey(&st.iter)
		st.vals.Index(i).SetIterValue(&st.iter)
		st.entries = append(st.entries, mapEntry{st.key.String(), i})
	}
	st.iter.Reset(reflect.Value{})
	slices.SortFunc(st.entries, func(a, b mapEntry) int { return strings.Compare(a.key, b.key) })
	return st
}

// value is the j-th entry's value, in key order.
func (st *mapStore) value(j int) reflect.Value { return st.vals.Index(st.entries[j].i) }

// release ends the loan, dropping the copied values so they pin nothing.
func (st *mapStore) release() {
	st.vals.Clear()
	st.busy = false
}
