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

// lease is what scanLease reads: a body shaped like the renew request, with a
// job type beside it to read an Enum.
type lease struct {
	id   uint64
	job  int
	hold float64
}

var jobNames = []string{"short", "medium", "long"}

func scanLease(s *Scanner, body []byte) (lease, bool) {
	s.Reset(body)
	v := lease{job: -1}
	for s.Object(); s.Next(); {
		switch s.Field("lease", "job_type", "hold_seconds") {
		case 0:
			v.id = s.Uint()
		case 1:
			v.job = s.Enum(jobNames...)
		case 2:
			v.hold = s.Float()
		}
	}
	return v, s.Done()
}

func TestScannerReadsUintAndEnum(t *testing.T) {
	var s Scanner
	for _, c := range []struct {
		body string
		want lease
	}{
		{`{"lease":0}`, lease{job: -1}},
		{`{"lease":18446744073709551615,"job_type":"long"}`, lease{id: 1<<64 - 1, job: 2}},
		{` { "job_type" : "short" , "lease" : 42 , "hold_seconds" : 2.5 } `, lease{id: 42, hold: 2.5}},
		{`{"job_type":"medium"}`, lease{job: 1}},
	} {
		if got, ok := scanLease(&s, []byte(c.body)); !ok || got != c.want {
			t.Errorf("%q: got %+v, %v; want %+v", c.body, got, ok, c.want)
		}
	}
}

func TestScannerDeclinesUintAndEnum(t *testing.T) {
	var s Scanner
	for _, body := range []string{
		// Uint: a sign, a fraction, an exponent, an overflow, not a number.
		`{"lease":-1}`, `{"lease":-0}`, `{"lease":+1}`, `{"lease":1.5}`, `{"lease":1.0}`, `{"lease":1e0}`,
		`{"lease":18446744073709551616}`, `{"lease":99999999999999999999999}`, `{"lease":"1"}`,
		`{"lease":null}`, `{"lease":true}`, `{"lease":01}`,
		// Enum: an escape, a control byte, another name in any case, not a
		// string, unterminated.
		`{"job_type":"sh\u006frt"}`, `{"job_type":"sh\"ort"}`, "{\"job_type\":\"sh\tort\"}",
		"{\"job_type\":\"short\x00\"}", `{"job_type":"Short"}`, `{"job_type":"SHORT"}`, `{"job_type":"shorter"}`,
		`{"job_type":""}`, `{"job_type":"eternal"}`, `{"job_type":1}`, `{"job_type":null}`,
		`{"job_type":true}`, `{"job_type":["short"]}`, `{"job_type":{}}`, `{"job_type":"short`, `{"job_type":short}`,
	} {
		if got, ok := scanLease(&s, []byte(body)); ok {
			t.Errorf("%q accepted as %+v", body, got)
		}
	}
}

func TestScannerUintAndEnumAllocateNothing(t *testing.T) {
	var s Scanner
	body := []byte(`{"lease":18446744073709551615,"job_type":"medium","hold_seconds":30}`)
	if n := testing.AllocsPerRun(100, func() { scanLease(&s, body) }); n != 0 {
		t.Errorf("a scan allocates %v objects, want 0", n)
	}
}
