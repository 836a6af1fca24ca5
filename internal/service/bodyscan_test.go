package service

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"testing"
)

// scannedBodies are bodies one of the body scanners takes: what the clients
// post, then the rest of the subset.
var scannedBodies = []string{
	`{"samples":[{"tenant":3,"at_seconds":120,"utilization":0.5000},{"tenant":4,"at_seconds":120,"utilization":0.0125}]}`,
	`{"server":1944}`,
	`{"job_type":"short","max_concurrent_cores":1}`,
	`{"max_concurrent_cores":2.5,"last_run_seconds":45,"dry_run":true,"hold_seconds":30}`,
	`{"job_type":"long","max_concurrent_cores":1e9,"dry_run":false}`,
	`{"lease":18446744073709551615}`,
	`{"lease":7,"hold_seconds":60}`,
	`{"replication":3}`,
	`{"replication":4,"writer":17,"relaxed_environment":true}`,
	` { "samples" : [ { "server" : 7 , "utilization" : 1E-3 } , {"tenant":-0} ] } ` + "\n",
	`{"samples":[{"tenant":1,"server":2,"at_seconds":-1,"utilization":-2.5e+1}]}`,
	`{"samples":[{"at_seconds":1e300}]}`,
	`{"samples":[]}`,
	`{}`, // no samples, as encoding/json reads it; reimage declines it, lacking a server
}

// declinedBodies are bodies every scanner leaves to encoding/json.
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
	`{"job_type":"Short","max_concurrent_cores":1}`,
	`{"job_type":"sh\u006frt","max_concurrent_cores":1}`,
	`{"job_type":"","max_concurrent_cores":1}`,
	`{"job_type":null,"max_concurrent_cores":1}`,
	`{"Max_Concurrent_Cores":1}`,
	`{"max_concurrent_cores":1,"dry_run":true,"dry_run":false}`,
	`{"max_concurrent_cores":1,"job_id":"x"}`,
	`{"max_concurrent_cores":null}`,
	`{"lease":-1}`,
	`{"lease":1.0}`,
	`{"lease":18446744073709551616}`,
	`{"lease":null}`,
	`{"replication":1e0}`,
	`{"replication":3,"writer":null}`,
	`{"replication":3,"relaxed_environment":null}`,
	``,
}

// bodyScanners are the data plane's scanners, each reduced to whether it takes
// a body.
var bodyScanners = map[string]func([]byte) bool{
	"telemetry": func(b []byte) bool { _, ok := scanTelemetry(b, nil); return ok },
	"reimage":   func(b []byte) bool { _, ok := scanReimage(b); return ok },
	"select":    func(b []byte) bool { _, ok := scanSelect(b); return ok },
	"lease":     func(b []byte) bool { _, ok := scanLease(b); return ok },
	"place":     func(b []byte) bool { _, ok := scanPlace(b); return ok },
}

func TestJSONBodyScannerSubset(t *testing.T) {
	for _, body := range scannedBodies {
		taken := false
		for _, scan := range bodyScanners {
			taken = taken || scan([]byte(body))
		}
		if !taken {
			t.Errorf("every scanner declines %q", body)
		}
	}
	for _, body := range declinedBodies {
		for name, scan := range bodyScanners {
			if scan([]byte(body)) {
				t.Errorf("the %s scanner takes %q", name, body)
			}
		}
	}
}

// agrees fails the fuzz case unless json.Unmarshal into a copy of init
// succeeds on body and gives what a scanner read, by same, and every key in
// body is one of tags byte for byte.
func agrees[T any](t *testing.T, body []byte, scanned, init T, same func(a, b T) bool, tags ...string) {
	t.Helper()
	want := init
	if err := json.Unmarshal(body, &want); err != nil {
		t.Fatalf("scanner accepted %q; encoding/json: %v", body, err)
	}
	if !same(scanned, want) {
		t.Fatalf("%q: scanner read %+v, encoding/json %+v", body, scanned, want)
	}
	exactKeys(t, body, tags...)
}

// exactKeys fails the body if a key encoding/json's tokenizer reads in it is
// not among tags. It tracks which tokens are keys: a string may be a value too.
func exactKeys(t *testing.T, body []byte, tags ...string) {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(body))
	// Per open container: 'k' an object whose next token is a key or its end,
	// 'v' an object whose next token is a value, 'a' an array.
	var open []byte
	for {
		tok, err := dec.Token()
		if err != nil {
			return
		}
		n := len(open)
		if d, ok := tok.(json.Delim); ok && (d == '}' || d == ']') {
			open = open[:n-1]
			continue
		}
		if n > 0 && open[n-1] == 'k' {
			if key := tok.(string); !slices.Contains(tags, key) {
				t.Fatalf("scanner accepted %q, whose key %q is not one of %q", body, key, tags)
			}
			open[n-1] = 'v'
			continue
		}
		if n > 0 && open[n-1] == 'v' {
			open[n-1] = 'k'
		}
		switch tok {
		case json.Delim('{'):
			open = append(open, 'k')
		case json.Delim('['):
			open = append(open, 'a')
		}
	}
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// FuzzJSONBodyScanner holds the scanner to encoding/json on every data-plane
// body: for any bytes, each of scanTelemetry, scanReimage, scanSelect,
// scanLease and scanPlace either declines, or returns exactly what the handler
// would have made of json.Unmarshal's result, floats bit for bit — and
// json.Unmarshal succeeds on that body, and every key in it is one of the
// type's tags byte for byte. The last is the scanner's own rule, not
// encoding/json's, which also matches keys in another case.
func FuzzJSONBodyScanner(f *testing.F) {
	for _, body := range append(scannedBodies, declinedBodies...) {
		f.Add([]byte(body))
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
		if got, ok := scanSelect(body); ok {
			agrees(t, body, got, selectRequest{}, func(a, b selectRequest) bool {
				return a.JobType == b.JobType && sameFloat(a.LastRunSeconds, b.LastRunSeconds) &&
					sameFloat(a.MaxConcurrentCores, b.MaxConcurrentCores) && sameFloat(a.HoldSeconds, b.HoldSeconds) &&
					a.DryRun == b.DryRun && a.JobID == b.JobID && a.Owner == b.Owner
			}, "job_type", "last_run_seconds", "max_concurrent_cores", "hold_seconds", "dry_run")
		}
		if got, ok := scanLease(body); ok {
			agrees(t, body, got, leaseRequest{}, func(a, b leaseRequest) bool {
				return a.Lease == b.Lease && sameFloat(a.HoldSeconds, b.HoldSeconds)
			}, "lease", "hold_seconds")
		}
		if got, ok := scanPlace(body); ok {
			agrees(t, body, got, placeRequest{Writer: -1}, func(a, b placeRequest) bool { return a == b },
				"replication", "writer", "relaxed_environment")
		}
	})
}
