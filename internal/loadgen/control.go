package loadgen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"harvest/internal/blockledger"
)

// The control plane every entry point shares: discovery, one-shot JSON calls
// and the /metrics books view, all over net/http and off any measured path.

// httpClient bounds every control-plane call: a hung server must fail the
// run, not stall it past its duration — the same property the query
// connections get from their socket deadlines.
var httpClient = &http.Client{Timeout: 10 * time.Second}

func getJSON(url string, v any) error {
	resp, err := httpClient.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// postJSON posts a JSON body, optionally with a bearer token, and decodes a
// 200's reply into v. Any other status is an error.
func postJSON(url, token string, body []byte, v any) error {
	req, err := http.NewRequest("POST", url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := httpClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body) // keep the connection reusable; the status is the error
		return fmt.Errorf("POST %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// target is what discovery learns of the tier a run points at.
type target struct {
	baseURL     string
	httpAddr    string // host:port of the JSON listener
	binaryAddr  string // host:port of the binary frame listener, "" when none is advertised
	datacenters []string
}

// parseTarget accepts a base URL or a bare host:port.
func parseTarget(s string) (*target, error) {
	if !strings.Contains(s, "://") {
		s = "http://" + s
	}
	u, err := url.Parse(s)
	if err != nil {
		return nil, fmt.Errorf("bad target %q: %v", s, err)
	}
	host := u.Host
	if u.Port() == "" {
		host += ":80"
	}
	return &target{baseURL: strings.TrimSuffix(u.String(), "/"), httpAddr: host}, nil
}

// discover reads the served datacenters and the advertised binary listener
// from /v1/datacenters, then runs ready (when given), retrying the pair every
// half second until both succeed or the wait budget runs out. An empty
// datacenter list is an error: a harvestrouter lists none (and 503s per-DC
// probes) until its backends have registered, so a driver launched alongside
// the fleet needs a grace window, not a crash. It cannot know a fleet's
// intended size — orchestration that needs every backend registered first
// should gate on /v1/datacenters itself.
func discover(s string, wait time.Duration, ready func(*target) error) (*target, error) {
	t, err := parseTarget(s)
	if err != nil {
		return nil, err
	}
	for deadline := time.Now().Add(wait); ; time.Sleep(500 * time.Millisecond) {
		var dcl struct {
			Datacenters []string `json:"datacenters"`
			BinaryAddr  string   `json:"binary_addr"`
		}
		err := getJSON(t.baseURL+"/v1/datacenters", &dcl)
		if err == nil && len(dcl.Datacenters) == 0 {
			err = fmt.Errorf("server lists no datacenters")
		}
		if err == nil {
			t.datacenters, t.binaryAddr = dcl.Datacenters, dcl.BinaryAddr
			if ready != nil {
				err = ready(t)
			}
		}
		if err == nil {
			return t, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("discovery at %s: %w", t.baseURL, err)
		}
	}
}

// classesView is the slice of GET /v1/{dc}/classes the drivers read.
type classesView struct {
	AsOfSeconds float64 `json:"as_of_seconds"`
	Classes     []struct {
		ExampleServer int64 `json:"example_server"`
	} `json:"classes"`
}

func (t *target) classes(dc string) (classesView, error) {
	var v classesView
	err := getJSON(t.baseURL+"/v1/"+dc+"/classes", &v)
	return v, err
}

// dcBooks is the slice of one datacenter's /metrics section the wave reads:
// the block ledger's books verbatim plus the placement and repair counters.
type dcBooks struct {
	Blocks                blockledger.Stats `json:"blocks"`
	PlacementRelaxedTotal uint64            `json:"placement_relaxed_total"`
	RepairFailures        uint64            `json:"repair_failures"`
}

// books reads every datacenter's books from the target's own /metrics.
func (t *target) books() (map[string]dcBooks, error) {
	var m struct {
		Datacenters map[string]dcBooks `json:"datacenters"`
	}
	err := getJSON(t.baseURL+"/metrics", &m)
	return m.Datacenters, err
}
