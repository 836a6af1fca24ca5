package obs_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"harvest/internal/experiments"
	"harvest/internal/fleettest"
	"harvest/internal/obs"
	"harvest/internal/regproto"
	"harvest/internal/router"
	"harvest/internal/service"
	"harvest/internal/wire"
)

var update = flag.Bool("update", false, "rewrite the /metrics goldens under testdata/metrics")

// TestMetricsExpositions stands up the whole fleet in-process — a harvestd
// primary serving two datacenters with its binary listener attached, a
// follower replicating from it, and a harvestrouter in front of both, once
// with and once without its binary front — and holds both renderings of every
// /metrics against their goldens: the JSON document's key paths (with each
// leaf's JSON type), and the Prometheus exposition's HELP/TYPE lines and
// series keys. Values are stripped, so the files move only when a metric is
// added, renamed, retyped or relabelled — which is what a reviewer should see.
// Every exposition must also pass checkExposition.
func TestMetricsExpositions(t *testing.T) {
	for name, base := range startFleet(t) {
		t.Run(name, func(t *testing.T) {
			body := get(t, base+"/metrics", "application/json")
			var doc any
			if err := json.Unmarshal(body, &doc); err != nil {
				t.Fatalf("/metrics is not JSON: %v", err)
			}
			golden(t, name+".json.paths", jsonPaths(nil, "", doc))

			text := string(get(t, base+"/metrics?format=prometheus", "text/plain; version=0.0.4; charset=utf-8"))
			if err := checkExposition(text); err != nil {
				t.Errorf("exposition is not well formed: %v", err)
			}
			// The node's own role is the one family with a single label set by
			// nature; every other must show two, or its contiguity goes untested.
			if lone := loneFamilies(text); len(lone) > 0 && !(len(lone) == 1 && lone[0] == "harvestd_replication_role") {
				t.Errorf("families with fewer than two label sets: %v", lone)
			}
			golden(t, name+".prom", promShape(text))
		})
	}
}

// TestMetricsReplies holds what every /metrics scrape of the fleet sends: both
// formats go out with a Content-Length equal to the body's length, never
// chunked, and the JSON document is byte for byte what encoding/json writes
// for the value it carries — decoded into the daemon's exported types, it
// re-encodes to the same bytes.
func TestMetricsReplies(t *testing.T) {
	type harvestdDoc struct {
		UptimeSeconds float64                       `json:"uptime_seconds"`
		TotalRequests uint64                        `json:"total_requests"`
		QPS           float64                       `json:"qps"`
		Endpoints     map[string]obs.EndpointStats  `json:"endpoints"`
		Binary        *service.BinaryStats          `json:"binary,omitempty"`
		Replication   service.ReplicationStats      `json:"replication"`
		Datacenters   map[string]service.ShardStats `json:"datacenters"`
	}
	type routerDoc struct {
		UptimeSeconds float64                    `json:"uptime_seconds"`
		Router        router.RouterStats         `json:"router"`
		Datacenters   map[string]json.RawMessage `json:"datacenters"`
	}
	for name, base := range startFleet(t) {
		t.Run(name, func(t *testing.T) {
			var body []byte
			for _, query := range []string{"?format=prometheus", ""} {
				resp, err := http.Get(base + "/metrics" + query)
				if err != nil {
					t.Fatal(err)
				}
				body, _ = io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) > 0 {
					t.Errorf("/metrics%s: Content-Length %d, Transfer-Encoding %v, body %d bytes",
						query, resp.ContentLength, resp.TransferEncoding, len(body))
				}
			}
			var doc any = new(harvestdDoc)
			if strings.HasPrefix(name, "harvestrouter") {
				doc = new(routerDoc)
			}
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.DisallowUnknownFields()
			if err := dec.Decode(doc); err != nil {
				t.Fatalf("decode: %v", err)
			}
			var want bytes.Buffer
			if err := json.NewEncoder(&want).Encode(doc); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(body, want.Bytes()) {
				i := 0
				for i < len(body) && i < want.Len() && body[i] == want.Bytes()[i] {
					i++
				}
				t.Errorf("JSON differs from encoding/json's at byte %d:\ngot  …%s\nwant …%s",
					i, body[max(0, i-80):min(len(body), i+80)], want.Bytes()[max(0, i-80):min(want.Len(), i+80)])
			}
		})
	}
}

// startFleet boots the four scraped processes and returns their base URLs by
// golden name.
func startFleet(t *testing.T) map[string]string {
	t.Helper()
	dcs := []string{"DC-3", "DC-9"}
	config := func(node string) service.Config {
		cfg := service.DefaultConfig()
		cfg.Datacenters = dcs
		cfg.Scale = experiments.Scale{Datacenter: 0.05, Seed: 1}
		cfg.RefreshPeriod = 0
		cfg.NodeID = node
		cfg.ReplInterval = 25 * time.Millisecond
		return cfg
	}

	p := fleettest.StartNode(t, config("p1"))
	primary := p.Service

	// The follower keeps the JSON API alone: its golden has no binary section.
	fcfg := config("f1")
	fcfg.FollowAddr = p.ReplicateAddr
	follower, err := service.New(fcfg)
	if err != nil {
		t.Fatalf("follower: %v", err)
	}
	t.Cleanup(follower.Close)
	follower.Start()
	fsrv := httptest.NewServer(service.NewAPI(follower))
	t.Cleanup(fsrv.Close)

	// Books on both datacenters: a warm refresh (so the recluster section and
	// the drift threshold are live), one lease and one block each. Once the
	// follower holds them, telemetry far above history and a select to read it,
	// so a beat, not a generation, must carry the hot utilization over.
	for _, dc := range dcs {
		if err := primary.Refresh(dc); err != nil {
			t.Fatalf("refresh %s: %v", dc, err)
		}
		post(t, p.URL+"/v1/"+dc+"/select", `{"job_type":"short","max_concurrent_cores":1,"hold_seconds":600}`)
		post(t, p.URL+"/v1/"+dc+"/blocks", `{"replication":3}`)
	}
	fleettest.WaitFor(t, "the follower to hold the primary's books", func() bool {
		for _, dc := range dcs {
			p, _ := primary.Stats(dc)
			f, _ := follower.Stats(dc)
			if f.Generation != p.Generation || f.Ledger.ActiveLeases != 1 || f.Blocks.Blocks != 1 {
				return false
			}
		}
		return true
	})
	for _, dc := range dcs {
		snap, _ := primary.Snapshot(dc)
		var hot []string
		for _, cls := range snap.Clustering.Classes {
			for _, tid := range cls.Tenants {
				hot = append(hot, fmt.Sprintf(`{"tenant":%d,"utilization":0.97}`, tid))
			}
		}
		post(t, p.URL+"/v1/"+dc+"/telemetry", `{"samples":[`+strings.Join(hot, ",")+`]}`)
		post(t, p.URL+"/v1/"+dc+"/select", `{"job_type":"short","max_concurrent_cores":1,"dry_run":true}`)
	}
	fleettest.WaitFor(t, "a beat to carry the hot utilization to the follower", func() bool {
		for _, dc := range dcs {
			psnap, _ := primary.Snapshot(dc)
			fsnap, _ := follower.Snapshot(dc)
			if fsnap.Generation != psnap.Generation || !maps.Equal(primary.UsageFor(psnap), follower.UsageFor(fsnap)) {
				return false
			}
		}
		return true
	})

	idle := httptest.NewServer(http.NotFoundHandler())
	t.Cleanup(idle.Close)
	routerFor := func(binary bool) string {
		rt := router.New(router.Config{StaleAfter: time.Minute})
		srv := httptest.NewServer(rt)
		t.Cleanup(srv.Close)
		t.Cleanup(rt.Close)
		if binary {
			addr, _, err := rt.ListenAndServeBinary("127.0.0.1:0")
			if err != nil {
				t.Fatalf("router binary front: %v", err)
			}
			t.Cleanup(rt.CloseBinary)
			rt.SetBinaryAdvertise(addr.String())
		}
		var owned []wire.ReplDCGen
		for _, dc := range dcs {
			st, _ := primary.Stats(dc)
			owned = append(owned, wire.ReplDCGen{DC: dc, Generation: st.Generation})
		}
		for _, req := range []regproto.RegisterRequest{
			{ID: "p1", URL: p.URL, BinaryAddr: p.BinaryAddr, ReplicateAddr: p.ReplicateAddr, Role: "primary", Datacenters: owned},
			{ID: "f1", URL: fsrv.URL, Role: "follower", PrimaryID: "p1", Datacenters: owned},
			{ID: "leaving", URL: idle.URL, Draining: true, Datacenters: []wire.ReplDCGen{{DC: "DC-0", Generation: 1}}},
		} {
			c, err := regproto.Dial(srv.URL, "", 5*time.Second)
			if err != nil {
				t.Fatalf("register %s: %v", req.ID, err)
			}
			var ack regproto.RegisterResponse
			if err := c.Beat(&req, &ack); err != nil {
				t.Fatalf("register %s: %v", req.ID, err)
			}
			c.Close()
		}
		post(t, srv.URL+"/v1/DC-9/select", `{"job_type":"short","max_concurrent_cores":1,"dry_run":true}`)
		return srv.URL
	}
	return map[string]string{
		"harvestd_primary":     p.URL,
		"harvestd_follower":    fsrv.URL,
		"harvestrouter_binary": routerFor(true),
		"harvestrouter_json":   routerFor(false),
	}
}

func get(t *testing.T, url, contentType string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != contentType {
		t.Fatalf("GET %s: Content-Type %q, want %q", url, ct, contentType)
	}
	return body
}

func post(t *testing.T, url, body string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST %s: status %d: %s", url, resp.StatusCode, msg)
	}
}

// golden compares lines against testdata/metrics/<name>, or rewrites the file
// under -update.
func golden(t *testing.T, name string, lines []string) {
	t.Helper()
	path := filepath.Join("testdata", "metrics", name)
	got := strings.Join(lines, "\n") + "\n"
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test ./internal/obs -run TestMetricsExpositions -update)", err)
	}
	if got == string(want) {
		return
	}
	have := make(map[string]bool, len(lines))
	for _, l := range lines {
		have[l] = true
	}
	for _, l := range strings.Split(strings.TrimSuffix(string(want), "\n"), "\n") {
		if !have[l] {
			t.Errorf("%s: missing  %s", name, l)
		}
		delete(have, l)
	}
	for _, l := range lines {
		if have[l] {
			t.Errorf("%s: added    %s", name, l)
		}
	}
}

// jsonPaths lists every leaf of a decoded JSON document as "path type",
// sorted. Array elements share one path ("xs[]"), so a list's length is not
// part of the shape; an empty container is its own leaf.
func jsonPaths(out []string, path string, v any) []string {
	switch v := v.(type) {
	case map[string]any:
		if len(v) == 0 {
			return append(out, path+" object")
		}
		for k, e := range v {
			out = jsonPaths(out, strings.TrimPrefix(path+"."+k, "."), e)
		}
	case []any:
		if len(v) == 0 {
			return append(out, path+" array")
		}
		for _, e := range v {
			out = jsonPaths(out, path+"[]", e)
		}
	case nil:
		out = append(out, path+" null")
	case bool:
		out = append(out, path+" bool")
	case float64:
		out = append(out, path+" number")
	case string:
		out = append(out, path+" string")
	}
	if path == "" {
		sort.Strings(out)
		out = uniq(out)
	}
	return out
}

// promShape reduces an exposition to its sorted HELP/TYPE lines followed by
// its sorted series keys (name and labels, `le` bounds included, values
// dropped).
func promShape(text string) []string {
	var headers, series []string
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if strings.HasPrefix(line, "#") {
			headers = append(headers, line)
		} else if i := strings.LastIndexByte(line, ' '); i > 0 {
			series = append(series, line[:i])
		}
	}
	sort.Strings(headers)
	sort.Strings(series)
	return append(headers, uniq(series)...)
}

func uniq(sorted []string) []string {
	out := sorted[:0]
	for i, s := range sorted {
		if i == 0 || s != sorted[i-1] {
			out = append(out, s)
		}
	}
	return out
}

// checkExposition is the well-formedness a Prometheus scraper (and `promtool
// check metrics`) insists on: every family has one HELP immediately followed
// by its one TYPE; every series belongs to the family whose header it sits
// under, so each family is one contiguous group; every value is a number; and
// each histogram's buckets are cumulative, end at +Inf, and agree with _count.
func checkExposition(text string) error {
	var (
		seen    = map[string]bool{} // families whose header has been printed
		family  string              // the family the current group belongs to
		typ     string
		pending string // a HELP still waiting for its TYPE
		buckets = map[string]float64{}
	)
	for n, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		fail := func(format string, args ...any) error {
			return fmt.Errorf("line %d %q: %s", n+1, line, fmt.Sprintf(format, args...))
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, help, _ := strings.Cut(rest, " ")
			if pending != "" {
				return fail("HELP for %s has no TYPE", pending)
			}
			if seen[name] {
				return fail("family %s has a second header", name)
			}
			if help == "" {
				return fail("empty help text")
			}
			seen[name], pending = true, name
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, t, _ := strings.Cut(rest, " ")
			if name != pending {
				return fail("TYPE does not follow its own HELP (pending %q)", pending)
			}
			if t != "counter" && t != "gauge" && t != "histogram" {
				return fail("unknown type %q", t)
			}
			family, typ, pending = name, t, ""
			continue
		}
		if pending != "" {
			return fail("HELP for %s has no TYPE", pending)
		}
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 || strings.HasPrefix(line, "#") {
			return fail("neither a header nor a series")
		}
		key, val := line[:i], line[i+1:]
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return fail("value is not a number")
		}
		name, labels, _ := strings.Cut(key, "{")
		if labels != "" && !strings.HasSuffix(labels, "}") {
			return fail("unterminated label set")
		}
		labels = strings.TrimSuffix(labels, "}")
		if typ != "histogram" {
			if name != family {
				return fail("series sits under the header of %s: family is not contiguous", family)
			}
			continue
		}
		suffix := strings.TrimPrefix(name, family)
		if !strings.HasPrefix(name, family) || (suffix != "_bucket" && suffix != "_sum" && suffix != "_count") {
			return fail("series sits under the header of histogram %s: family is not contiguous", family)
		}
		switch suffix {
		case "_bucket":
			j := strings.LastIndex(labels, `le="`)
			if j < 0 {
				return fail("bucket has no le label")
			}
			series := family + "{" + strings.TrimSuffix(labels[:j], ",")
			if v < buckets[series] {
				return fail("bucket is not cumulative: %v after %v", v, buckets[series])
			}
			buckets[series] = v
		case "_count":
			if last, ok := buckets[family+"{"+labels]; !ok || last != v {
				return fail("_count %v disagrees with the +Inf bucket %v", v, last)
			}
		}
	}
	if pending != "" {
		return fmt.Errorf("HELP for %s has no TYPE", pending)
	}
	return nil
}

// loneFamilies names the labelled families that show fewer than two label
// sets (le aside), sorted: families whose contiguity the fleet does not
// exercise.
func loneFamilies(text string) []string {
	sets := map[string]map[string]bool{}
	for _, key := range promShape(text) {
		name, labels, ok := strings.Cut(strings.TrimSuffix(key, "}"), "{")
		if strings.HasPrefix(key, "#") || !ok {
			continue
		}
		if j := strings.LastIndex(labels, `le="`); j >= 0 {
			labels = strings.TrimSuffix(labels[:j], ",")
		}
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base := strings.TrimSuffix(name, suffix); strings.Contains(text, "# TYPE "+base+" histogram\n") {
				name = base
			}
		}
		if labels == "" {
			continue
		}
		if sets[name] == nil {
			sets[name] = map[string]bool{}
		}
		sets[name][labels] = true
	}
	var lone []string
	for name, s := range sets {
		if len(s) < 2 {
			lone = append(lone, name)
		}
	}
	sort.Strings(lone)
	return lone
}

// TestCheckExpositionRejects pins the checker itself on the defects it exists
// to catch.
func TestCheckExpositionRejects(t *testing.T) {
	const ok = "# HELP a A.\n# TYPE a counter\na{dc=\"x\"} 1\na{dc=\"y\"} 2\n" +
		"# HELP h H.\n# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 3\nh_count 2\n"
	if err := checkExposition(ok); err != nil {
		t.Fatalf("well-formed exposition rejected: %v", err)
	}
	for name, text := range map[string]string{
		"interleaved families": "# HELP a A.\n# TYPE a counter\n# HELP b B.\n# TYPE b counter\na{dc=\"x\"} 1\nb{dc=\"x\"} 1\na{dc=\"y\"} 1\n",
		"HELP without TYPE":    "# HELP a A.\na 1\n",
		"TYPE without HELP":    "# TYPE a counter\na 1\n",
		"second header":        "# HELP a A.\n# TYPE a counter\na 1\n# HELP a A.\n# TYPE a counter\n",
		"non-numeric value":    "# HELP a A.\n# TYPE a gauge\na true\n",
		"shrinking bucket":     "# HELP h H.\n# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 1\nh_sum 3\nh_count 1\n",
		"count off":            "# HELP h H.\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_sum 3\nh_count 3\n",
	} {
		if checkExposition(text) == nil {
			t.Errorf("%s: accepted\n%s", name, text)
		}
	}
}
