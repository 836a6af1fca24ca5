package service

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"testing"
)

// scannedBodies are bodies one of the history feeds' scanners takes: what the
// emitters post, then the rest of the subset.
var scannedBodies = []string{
	`{"samples":[{"tenant":3,"at_seconds":120,"utilization":0.5000},{"tenant":4,"at_seconds":120,"utilization":0.0125}]}`,
	`{"server":1944}`,
	` { "samples" : [ { "server" : 7 , "utilization" : 1E-3 } , {"tenant":-0} ] } ` + "\n",
	`{"samples":[{"tenant":1,"server":2,"at_seconds":-1,"utilization":-2.5e+1}]}`,
	`{"samples":[{"at_seconds":1e300}]}`,
	`{"samples":[]}`,
	`{}`, // no samples, as encoding/json reads it; reimage declines it, lacking a server
}

// declinedBodies are bodies both scanners leave to encoding/json.
var declinedBodies = []string{
	`{"samples":[{"Tenant":1}]}`,
	`{"SAMPLES":[{"tenant":1}]}`,
	`{"samples":[{"tenant":1,"tenant":2}]}`,
	`{"samples":[{"ten\u0061nt":1}]}`,
	`{"samples":[{"tenant":1,"extra":true}]}`,
	`{"samples":null}`,
	`{"samples":[{"tenant":null}]}`,
	`{"samples":[{"tenant":1.5}]}`,
	`{"samples":[{"tenant":1e2}]}`,
	`{"samples":[{"tenant":9223372036854775808}]}`,
	`{"samples":[{"utilization":1e400}]}`,
	`{"samples":[{"tenant":01}]}`,
	`{"samples":[{"tenant":"1"}]}`,
	`{"samples":[{"tenant":1},]}`,
	`{"samples":[{"tenant":1}]}{"server":3}`,
	`{"samples":[[]]}`,
	`{"server":12} x`,
	`{"server":null}`,
	`{"server":-}`,
	`{"server":1,"server":2}`,
	``,
}

func TestJSONBodyScannerSubset(t *testing.T) {
	for _, body := range scannedBodies {
		_, telemetry := scanTelemetry([]byte(body), nil)
		_, reimage := scanReimage([]byte(body))
		if !telemetry && !reimage {
			t.Errorf("both scanners decline %q", body)
		}
	}
	for _, body := range declinedBodies {
		_, telemetry := scanTelemetry([]byte(body), nil)
		_, reimage := scanReimage([]byte(body))
		if telemetry || reimage {
			t.Errorf("a scanner takes %q (telemetry %v, reimage %v)", body, telemetry, reimage)
		}
	}
}

// FuzzJSONBodyScanner holds the scanner to encoding/json on both history
// feeds' bodies: for any bytes, scanTelemetry and scanReimage either decline,
// or return exactly what the handler would have made of json.Unmarshal's
// result — and json.Unmarshal succeeds on that body, and every key in it is
// one of the type's tags byte for byte. The last is the scanner's own rule,
// not encoding/json's, which also matches keys in another case.
func FuzzJSONBodyScanner(f *testing.F) {
	for _, body := range append(scannedBodies, declinedBodies...) {
		f.Add([]byte(body))
	}
	// exactKeys fails the body if a key encoding/json's tokenizer reads in it is
	// not among tags. The scanner takes no string values, so in a body it
	// accepted every string token is a key.
	exactKeys := func(t *testing.T, body []byte, tags ...string) {
		dec := json.NewDecoder(bytes.NewReader(body))
		for {
			tok, err := dec.Token()
			if err != nil {
				return
			}
			if key, ok := tok.(string); ok && !slices.Contains(tags, key) {
				t.Fatalf("scanner accepted %q, whose key %q is not one of %q", body, key, tags)
			}
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if got, ok := scanTelemetry(body, nil); ok {
			var req telemetryRequest
			if err := json.Unmarshal(body, &req); err != nil {
				t.Fatalf("scanner accepted %q; encoding/json: %v", body, err)
			}
			exactKeys(t, body, "samples", "tenant", "server", "at_seconds", "utilization")
			if len(got) != len(req.Samples) {
				t.Fatalf("%q: scanner read %d samples, encoding/json %d", body, len(got), len(req.Samples))
			}
			for i, s := range req.Samples {
				want := s.sample()
				g := got[i]
				if g.Tenant != want.Tenant || g.Server != want.Server || g.At != want.At ||
					math.Float64bits(g.Value) != math.Float64bits(want.Value) {
					t.Fatalf("%q: sample %d is %+v, encoding/json's %+v", body, i, g, want)
				}
			}
		}
		if got, ok := scanReimage(body); ok {
			var req reimageRequest
			if err := json.Unmarshal(body, &req); err != nil || req.Server == nil || *req.Server != got {
				t.Fatalf("scanner read server %d from %q; encoding/json: %+v, %v", got, body, req, err)
			}
			exactKeys(t, body, "server")
		}
	})
}
