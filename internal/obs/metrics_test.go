package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"

	"harvest/internal/httpjson"
)

type zooBase struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Note   string
	Shadow int `json:"shadow"`
}

type ZooExtra struct {
	Name string `json:"name"` // ties zooBase.Name: neither is written
	Flag bool   `json:"flag"`
	Over string `json:"Note"` // tagged: written over zooBase.Note
}

// zoo is every shape the JSON plan writes itself, beside a few it hands to
// encoding/json.
type zoo struct {
	zooBase
	*ZooExtra
	Shadow  string `json:"shadow"` // shallower than zooBase.Shadow
	Skip    int    `json:"-"`
	Dash    int    `json:"-,"`
	private int
	U8      uint8
	I16     int16
	Floats  []float64
	Text    string
	Omit    bool                       `json:",omitempty"`
	OmitS   string                     `json:"omit_s,omitempty"`
	NegZero float64                    `json:"neg_zero,omitempty"`
	Ptr     *int                       `json:"ptr"`
	OmitPtr *int                       `json:"omit_ptr,omitempty"`
	Rows    map[string]zooBase         `json:"rows"`
	NilMap  map[string]int             `json:"nil_map"`
	Empty   map[string]int             `json:"empty,omitempty"`
	NilList []int                      `json:"nil_list"`
	Raw     json.RawMessage            `json:"raw"`
	NilRaw  json.RawMessage            `json:"nil_raw"`
	Raws    map[string]json.RawMessage `json:"raws"`
	Hist    *Histogram                 `json:"hist"`
	When    time.Time                  `json:"when"`
	Any     any                        `json:"any"`
	Bytes   []byte                     `json:"bytes"`
	Pair    [2]int                     `json:"pair"`
	Pauses  [3]uint64                  `json:"pauses"`
	Ratios  [2]float64                 `json:"ratios"`
	Grid    [2][2]int8                 `json:"grid"`
	Digest  [2]byte                    `json:"digest"` // numbers, unlike []byte
	Sizes   [2]struct{ Size uint32 }   `json:"sizes"`
	Bases   [2]zooBase                 `json:"bases"`
	None    [0]int                     `json:"none,omitempty"`  // empty: omitted
	Zeros   [2]int                     `json:"zeros,omitempty"` // zero, not empty: written
	F32     float32                    `json:"f32"`
}

// TestMetricsJSONIsEncodingJSON holds the plan's JSON to encoding/json's on
// every shape above, and a float JSON cannot carry to the same 500.
func TestMetricsJSONIsEncodingJSON(t *testing.T) {
	seven := 7
	var h Histogram
	v := zoo{
		zooBase:  zooBase{ID: 1, Name: "base", Note: "<b>&</b>", Shadow: 2},
		ZooExtra: &ZooExtra{Name: "extra", Flag: true, Over: "over"},
		Shadow:   "outer", Skip: 3, Dash: 4, private: 5, U8: 255, I16: -300,
		Floats:  []float64{0, -0.0, 1e-7, 1e21, 123456789, 0.1, -2.5e-300, math.MaxFloat64},
		Text:    "tab\tnl\n\x00   \xff ünï \"q\" \\",
		NegZero: math.Copysign(0, -1),
		OmitPtr: &seven,
		Rows:    map[string]zooBase{"b": {ID: 2}, "a": {Name: "<a>"}, "": {}},
		Empty:   map[string]int{},
		Raw:     json.RawMessage(`{"x":[1,2]}`),
		Raws:    map[string]json.RawMessage{"z": json.RawMessage(`3`), "y": nil},
		Hist:    &h,
		When:    time.Date(2026, 1, 2, 3, 4, 5, 6, time.UTC),
		Any:     map[string]int{"k": 1},
		Bytes:   []byte("bytes"),
		Pair:    [2]int{8, 9},
		Pauses:  [3]uint64{math.MaxUint64, 0, 12},
		Ratios:  [2]float64{1e-7, 0.5},
		Grid:    [2][2]int8{{-1, 2}, {3, -128}},
		Digest:  [2]byte{0, 255},
		Sizes:   [2]struct{ Size uint32 }{{8}, {math.MaxUint32}},
		Bases:   [2]zooBase{{ID: 3, Note: "n"}, {Shadow: 4}},
		F32:     0.1,
	}
	for _, v := range []*zoo{&v, {}} {
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		w := httptest.NewRecorder()
		WriteMetrics(w, v, false)
		if got := w.Body.Bytes(); !bytes.Equal(got, append(want, '\n')) {
			t.Errorf("plan wrote\n%s\nencoding/json writes\n%s", got, want)
		}
		if n, _ := strconv.Atoi(w.Header().Get("Content-Length")); n != w.Body.Len() {
			t.Errorf("Content-Length %d for %d bytes", n, w.Body.Len())
		}
	}

	type row struct{ Ratio float64 }
	for _, f := range []float64{math.NaN(), math.Inf(-1)} {
		v := struct{ Rows map[string]row }{map[string]row{"a": {}, "b": {f}}}
		want, got := httptest.NewRecorder(), httptest.NewRecorder()
		httpjson.Write(want, http.StatusOK, &v)
		WriteMetrics(got, &v, false)
		if got.Code != want.Code || got.Body.String() != want.Body.String() {
			t.Errorf("%v: %d %q, want %d %q", f, got.Code, got.Body, want.Code, want.Body)
		}
		// The map failed mid-way; its storage is back for the next scrape.
		var e jsonEncoder
		if e.value(planOf(reflect.TypeOf(&v)), reflect.ValueOf(&v)) == nil {
			t.Fatalf("%v encoded", f)
		}
		for _, st := range e.maps {
			if st.busy {
				t.Errorf("%v: a map's storage is still lent after the failed scrape", f)
			}
		}
	}
}

// TestPrometheusFormat holds the raw-query reading to url.Values' answer.
func TestPrometheusFormat(t *testing.T) {
	for _, q := range []string{
		"", "format=prometheus", "x=1&format=prometheus", "format=prometheus&format=json",
		"format=json&format=prometheus", "format=prom%65theus", "form%61t=prometheus",
		"format=prometheus;x=1", "x=1;y&format=prometheus", "format=json;x&format=prometheus", "format=%zz&format=prometheus",
		"%zz=1&format=prometheus", "format", "format=", "format=prometheus+", "+format=prometheus",
		"&&format=prometheus", "format=prometheus=", "FORMAT=prometheus", "format=%70rometheus%",
	} {
		r := &http.Request{URL: &url.URL{RawQuery: q}}
		if got, want := PrometheusFormat(r), r.URL.Query().Get("format") == "prometheus"; got != want {
			t.Errorf("%q: %v, want %v", q, got, want)
		}
	}
}

// TestMetricsConcurrentScrapes renders one type from several goroutines at
// once, its plan built by whichever comes first: every scrape is whole.
func TestMetricsConcurrentScrapes(t *testing.T) {
	type row struct {
		N uint64 `json:"n" prom:"c_n,counter" help:"N."`
	}
	type doc struct {
		Rows map[string]row `json:"rows" labels:"k"`
	}
	v := &doc{Rows: map[string]row{"b": {2}, "a": {1}, "c": {3}}}
	js, _ := json.Marshal(v)
	want := map[bool]string{
		false: string(js) + "\n",
		true:  "# HELP c_n N.\n# TYPE c_n counter\nc_n{k=\"a\"} 1\nc_n{k=\"b\"} 2\nc_n{k=\"c\"} 3\n",
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(prom bool) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				w := httptest.NewRecorder()
				WriteMetrics(w, v, prom)
				if got := w.Body.String(); got != want[prom] {
					t.Errorf("prometheus=%v: %q, want %q", prom, got, want[prom])
					return
				}
			}
		}(g%2 == 0)
	}
	wg.Wait()
}
