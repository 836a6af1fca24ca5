package obs

import (
	"encoding/json"
	"math"
	"net/http"
	"net/url"
	"reflect"
	"strconv"
	"strings"
	"sync"

	"harvest/internal/httpjson"
)

// WriteMetrics answers a /metrics scrape with stats, a pointer to a tagged
// stats value: the Prometheus exposition when prometheus is set, else the
// JSON document, byte for byte what httpjson.Write sends for it. Either goes
// out in one write with its Content-Length, rendered through the type's plan
// into pooled buffers, so a scrape after the first allocates nothing here. A
// float JSON cannot carry fails the scrape with a 500, as it does through
// encoding/json.
//
// A metric is one struct field carrying, beside its json tag,
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
// A slice, an array, or a type with its own JSON or text form, is not a
// metric. In the labels tag a bare name is the label that takes the map key,
// and name=value is a constant; labels accumulate outermost first, in the
// order written. Map keys render sorted. Every family reachable through
// non-nil pointers is declared even when it has no series to show (an empty
// map declares its element's families), so HELP/TYPE do not come and go with
// the data. The tags are read once per type (plan.go).
func WriteMetrics(w http.ResponseWriter, stats any, prometheus bool) {
	r := renderers.Get().(*renderer)
	defer renderers.Put(r)
	v := reflect.ValueOf(stats)
	n := planOf(v.Type())
	if prometheus {
		r.prom.reset()
		r.prom.walk(n, v, true)
		r.prom.Reply(w)
		return
	}
	r.json.buf = r.json.buf[:0]
	if err := r.json.value(n, v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	r.json.buf = append(r.json.buf, '\n')
	httpjson.Reply(w, http.StatusOK, jsonContentType, r.json.buf)
}

var jsonContentType = []string{"application/json"}

// renderer is one scrape's storage, kept between scrapes.
type renderer struct {
	json jsonEncoder
	prom Prom
}

var renderers = sync.Pool{New: func() any { return new(renderer) }}

// PrometheusFormat reports whether a /metrics request asks for the text
// exposition: whether its query's first format parameter, decoded as
// url.ParseQuery decodes it, is "prometheus". It reads the raw query and
// builds no url.Values.
func PrometheusFormat(r *http.Request) bool {
	for q := r.URL.RawQuery; q != ""; {
		var kv string
		kv, q, _ = strings.Cut(q, "&")
		k, v, _ := strings.Cut(kv, "=")
		if k, err := unescapeQuery(k); err != nil || k != "format" || strings.Contains(kv, ";") {
			continue
		}
		if v, err := unescapeQuery(v); err == nil {
			return v == "prometheus"
		}
	}
	return false
}

func unescapeQuery(s string) (string, error) {
	if !strings.ContainsAny(s, "%+") {
		return s, nil
	}
	return url.QueryUnescape(s)
}

// jsonEncoder writes a value through its plan as encoding/json writes it.
type jsonEncoder struct {
	buf  []byte
	maps sorter
}

func (e *jsonEncoder) value(n *node, v reflect.Value) error {
	if n.kind >= kindRaw && n.kind <= kindMap && v.IsNil() {
		e.buf = append(e.buf, "null"...)
		return nil
	}
	switch n.kind {
	case kindBool:
		e.buf = strconv.AppendBool(e.buf, v.Bool())
	case kindInt:
		e.buf = strconv.AppendInt(e.buf, v.Int(), 10)
	case kindUint:
		e.buf = strconv.AppendUint(e.buf, v.Uint(), 10)
	case kindFloat:
		f := v.Float()
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return &json.UnsupportedValueError{Value: v, Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		e.buf = httpjson.AppendFloat(e.buf, f)
	case kindString:
		e.buf = httpjson.AppendString(e.buf, v.String())
	case kindRaw:
		e.buf = append(e.buf, v.Bytes()...)
	case kindPointer, kindHist:
		return e.value(n.elem, v.Elem())
	case kindSlice, kindArray:
		e.buf = append(e.buf, '[')
		for i := 0; i < v.Len(); i++ {
			if i > 0 {
				e.buf = append(e.buf, ',')
			}
			if err := e.value(n.elem, v.Index(i)); err != nil {
				return err
			}
		}
		e.buf = append(e.buf, ']')
	case kindMap:
		st := e.maps.load(n, v)
		defer st.release()
		e.buf = append(e.buf, '{')
		for j := range st.entries {
			if j > 0 {
				e.buf = append(e.buf, ',')
			}
			e.buf = append(httpjson.AppendString(e.buf, st.entries[j].key), ':')
			if err := e.value(n.elem, st.value(j)); err != nil {
				return err
			}
		}
		e.buf = append(e.buf, '}')
	case kindStruct:
		e.buf = append(e.buf, '{')
		sep := false
		for i := range n.json {
			f := &n.json[i]
			fv, err := v.FieldByIndexErr(f.index) // fails through a nil embedded pointer
			if err != nil || f.omitempty && isEmpty(fv) {
				continue
			}
			if sep {
				e.buf = append(e.buf, ',')
			}
			sep, e.buf = true, append(e.buf, f.key...)
			if err := e.value(f.node, fv); err != nil {
				return err
			}
		}
		e.buf = append(e.buf, '}')
	default:
		b, err := json.Marshal(v.Interface())
		e.buf = append(e.buf, b...)
		return err
	}
	return nil
}

// isEmpty is encoding/json's omitempty test.
func isEmpty(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Array, reflect.Map, reflect.Slice, reflect.String:
		return v.Len() == 0
	case reflect.Struct:
		return false
	}
	return v.IsZero()
}
