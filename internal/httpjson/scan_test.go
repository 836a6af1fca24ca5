package httpjson

import "testing"

// flat is what scanFlat reads: a body shaped like the place request, the
// scanner's one bool.
type flat struct {
	replication int64
	writer      int64
	relaxed     bool
	weights     []float64
}

func scanFlat(s *Scanner, body []byte, weights []float64) (flat, bool) {
	s.Reset(body)
	v := flat{writer: -1, weights: weights[:0]}
	for s.Object(); s.Next(); {
		switch s.Field("replication", "writer", "relaxed", "weights") {
		case 0:
			v.replication = s.Int()
		case 1:
			v.writer = s.Int()
		case 2:
			v.relaxed = s.Bool()
		case 3:
			for s.Array(); s.Next(); {
				v.weights = append(v.weights, s.Float())
			}
		}
	}
	return v, s.Done()
}

func TestScannerReadsTheSubset(t *testing.T) {
	var s Scanner
	for _, c := range []struct {
		body string
		want flat
	}{
		{`{"replication":3,"writer":-1,"relaxed":true}`, flat{replication: 3, writer: -1, relaxed: true}},
		{"\t{ \"relaxed\" : false ,\"weights\":[0.5, -1e-2 ,0]}\r\n", flat{writer: -1, weights: []float64{0.5, -0.01, 0}}},
		{`{"weights":[]}`, flat{writer: -1}},
		{`{}`, flat{writer: -1}},
	} {
		got, ok := scanFlat(&s, []byte(c.body), nil)
		if !ok || got.replication != c.want.replication || got.writer != c.want.writer ||
			got.relaxed != c.want.relaxed || len(got.weights) != len(c.want.weights) {
			t.Errorf("%q: got %+v, %v; want %+v", c.body, got, ok, c.want)
			continue
		}
		for i, w := range c.want.weights {
			if got.weights[i] != w {
				t.Errorf("%q: weight %d = %v, want %v", c.body, i, got.weights[i], w)
			}
		}
	}
}

func TestScannerDeclines(t *testing.T) {
	var s Scanner
	for _, body := range []string{
		``, ` `, `[]`, `null`, `{`, `{"replication":3`, `{"replication":3}}`, `{"replication":3} 1`,
		`{"replication":3,}`, `{,"replication":3}`, `{"replication" 3}`, `{"replication":3 "writer":1}`,
		`{"Replication":3}`, `{"repl\u0069cation":3}`, "{\"repl\tication\":3}", `{"replication":3,"replication":3}`, `{"other":3}`,
		`{"replication":null}`, `{"replication":"3"}`, `{"replication":3.0}`, `{"replication":1e1}`,
		`{"replication":-}`, `{"replication":03}`, `{"replication":+3}`, `{"replication":0x3}`,
		`{"replication":99999999999999999999}`, `{"weights":[1.]}`, `{"weights":[.5]}`, `{"weights":[1e]}`,
		`{"weights":[1e999]}`, `{"weights":[1,]}`, `{"weights":[,1]}`, `{"weights":[1 2]}`, `{"weights":[[1]]}`,
		`{"relaxed":tru}`, `{"relaxed":True}`, `{"relaxed":truex}`, `{"relaxed":1}`, "{\"relaxed\":true}\x00",
	} {
		if got, ok := scanFlat(&s, []byte(body), nil); ok {
			t.Errorf("%q accepted as %+v", body, got)
		}
	}
}

func TestScannerAllocatesNothing(t *testing.T) {
	var s Scanner
	body := []byte(`{"replication":3,"writer":17,"relaxed":true,"weights":[0.25,0.5,0.75]}`)
	weights := make([]float64, 0, 4)
	if n := testing.AllocsPerRun(100, func() { scanFlat(&s, body, weights) }); n != 0 {
		t.Errorf("a scan allocates %v objects, want 0", n)
	}
}
