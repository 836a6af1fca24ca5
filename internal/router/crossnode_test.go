package router_test

// The fleet tests: a real router fronting real harvestd nodes
// (internal/fleettest), glued together by the real registration loop.
//
// TestCrossNodeShardingEndToEnd proves the sharding contract:
//
//   - select → hold → release through the router lands on the owning shard's
//     allocation ledger (and only there), and the books balance afterwards;
//   - /v1/datacenters serves the union of the live backends;
//   - killing one backend 503s only its datacenters while the other keeps
//     serving.
//
// TestFailoverChainThroughTheRouter proves the replication contract across
// two promotions: reads spread over the replicas, writes move to whichever
// follower the router promotes, the surviving follower re-attaches to it, and
// leases survive each hop exactly once.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"testing"
	"time"

	"harvest/internal/experiments"
	"harvest/internal/fleettest"
	"harvest/internal/ledger"
	"harvest/internal/loadgen"
	"harvest/internal/router"
	"harvest/internal/service"
)

// nodeConfig is one node serving dcs at test scale with the refresher off.
func nodeConfig(id string, dcs ...string) service.Config {
	cfg := service.DefaultConfig()
	cfg.Datacenters = dcs
	cfg.Scale = experiments.Scale{Datacenter: 0.05, Seed: 1}
	cfg.RefreshPeriod = 0
	cfg.NodeID = id
	return cfg
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func TestCrossNodeShardingEndToEnd(t *testing.T) {
	rt := fleettest.StartRouter(t, router.Config{
		StaleAfter:       500 * time.Millisecond, // the breaker's cooldown is 100 ms
		BreakerThreshold: 1,                      // a killed backend 503s from the first failed proxy
	})
	a := fleettest.StartNode(t, nodeConfig("node-a", "DC-9"))
	b := fleettest.StartNode(t, nodeConfig("node-b", "DC-8"))
	a.Announce(t, rt.URL)
	b.Announce(t, rt.URL)

	// Union: both nodes' datacenters behind one surface.
	fleettest.WaitFor(t, "both backends in /v1/datacenters", func() bool {
		return slices.Equal(datacentersOf(t, rt.URL), []string{"DC-8", "DC-9"})
	})

	// A reserving select through the router must land on the owning shard.
	resp, body := postJSON(t, rt.URL+"/v1/DC-9/select", `{"job_type":"medium","max_concurrent_cores":8}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("select via router: status %d (%s)", resp.StatusCode, body)
	}
	var sel struct {
		Datacenter  string    `json:"datacenter"`
		Satisfiable bool      `json:"satisfiable"`
		Lease       uint64    `json:"lease"`
		Granted     []float64 `json:"granted"`
	}
	if err := json.Unmarshal(body, &sel); err != nil {
		t.Fatalf("unmarshal select: %v (%s)", err, body)
	}
	if sel.Datacenter != "DC-9" || !sel.Satisfiable || sel.Lease == 0 {
		t.Fatalf("select via router = %+v, want a satisfiable DC-9 lease", sel)
	}
	stA, _ := ledgerStats(a.Service, "DC-9")
	if stA.ActiveLeases != 1 || stA.OutstandingMillis != 8000 {
		t.Fatalf("owning shard books = %+v, want 1 lease / 8000 millis outstanding", stA)
	}
	stB, _ := ledgerStats(b.Service, "DC-8")
	if stB.Reserves != 0 || stB.ActiveLeases != 0 {
		t.Fatalf("non-owning shard saw the reservation: %+v", stB)
	}

	// Release round-trips through the router to the same shard.
	resp, body = postJSON(t, rt.URL+"/v1/DC-9/release",
		`{"lease":`+strconv.FormatUint(sel.Lease, 10)+`}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("release via router: status %d (%s)", resp.StatusCode, body)
	}
	stA, _ = ledgerStats(a.Service, "DC-9")
	if stA.OutstandingMillis != 0 || stA.ActiveLeases != 0 {
		t.Fatalf("books after release = %+v, want nothing outstanding", stA)
	}
	if stA.ReservedMillis != stA.ReleasedMillis+stA.ExpiredMillis+stA.ForfeitedMillis+stA.OutstandingMillis {
		t.Fatalf("conservation violated on the owning shard: %+v", stA)
	}

	// The other shard serves queries through the router too.
	if resp, body := getBody(t, rt.URL+"/v1/DC-8/classes"); resp.StatusCode != http.StatusOK {
		t.Fatalf("DC-8 classes via router: status %d (%s)", resp.StatusCode, body)
	}
	if st := routerStats(t, rt.URL); st.Proxied < 3 || st.Backends["node-a"].Proxied == 0 || st.Backends["node-b"].Proxied == 0 {
		t.Fatalf("router proxied %d requests, %+v by backend; want both backends' share counted", st.Proxied, st.Backends)
	}

	// Kill node B. Its datacenter must 503 with a Retry-After while DC-9 keeps
	// serving, and it must drop out of the union once stale.
	b.Kill()
	fleettest.WaitFor(t, "DC-8 to go unavailable", func() bool {
		resp, err := http.Get(rt.URL + "/v1/DC-8/classes")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusServiceUnavailable
	})
	resp, err := http.Get(rt.URL + "/v1/DC-8/classes")
	if err != nil {
		t.Fatalf("GET dead DC-8: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("dead backend: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Errorf("dead backend 503 is missing Retry-After")
	}
	// The surviving shard is unaffected — queries and reservations still work.
	resp2, body := postJSON(t, rt.URL+"/v1/DC-9/select", `{"job_type":"short","max_concurrent_cores":2,"hold_seconds":30}`)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("surviving shard select: status %d (%s)", resp2.StatusCode, body)
	}
	if err := json.Unmarshal(body, &sel); err != nil || sel.Datacenter != "DC-9" {
		t.Fatalf("surviving shard select = %s (err %v)", body, err)
	}
	fleettest.WaitFor(t, "union to shrink to DC-9", func() bool {
		return slices.Equal(datacentersOf(t, rt.URL), []string{"DC-9"})
	})
}

// TestFailoverChainThroughTheRouter kills a primary and then the follower the
// router promoted in its place, with a lease outstanding each time, behind
// one router: primary p, followers f1 and f2.
func TestFailoverChainThroughTheRouter(t *testing.T) {
	const dc = "DC-9"
	rt := fleettest.StartRouter(t, router.Config{StaleAfter: 500 * time.Millisecond})
	nodes := map[string]*fleettest.Node{}
	start := func(id, follow string) *fleettest.Node {
		cfg := nodeConfig(id, dc)
		cfg.ReplInterval = 25 * time.Millisecond
		cfg.FollowAddr = follow
		n := fleettest.StartNode(t, cfg)
		n.Announce(t, rt.URL)
		nodes[id] = n
		return n
	}
	p := start("node-p", "")
	start("node-f1", p.ReplicateAddr)
	start("node-f2", p.ReplicateAddr)

	// run drives mix through the router and requires every reply to succeed.
	run := func(mix string) *loadgen.Report {
		t.Helper()
		rep, err := loadgen.Run(loadgen.Config{
			Target: rt.URL, Proto: "json", Workers: 2, Pipeline: 4,
			Duration: 300 * time.Millisecond, Mix: mix, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Requests == 0 || rep.Errors != 0 {
			t.Fatalf("%s through the router: %d errors in %d replies (%+v)", mix, rep.Errors, rep.Requests, rep.Ops)
		}
		return rep
	}
	// promoted waits for the router to mark dead stale, then for it to hold
	// exactly one live primary after at least promotions promotions, and
	// returns that node.
	promoted := func(dead string, promotions uint64) *fleettest.Node {
		t.Helper()
		fleettest.WaitFor(t, dead+" to go stale at the router", func() bool {
			return !routerStats(t, rt.URL).Backends[dead].Alive
		})
		// Reads keep serving, none from the dead node, while the followers'
		// beats elect the replacement.
		if rep := run("dryselect=50,place=30,classes=20"); rep.Backends[dead] != 0 {
			t.Fatalf("%d reads served by the dead %s", rep.Backends[dead], dead)
		}
		var live []string
		fleettest.WaitFor(t, fmt.Sprintf("one live primary after %d promotions", promotions), func() bool {
			getBody(t, rt.URL+"/v1/"+dc+"/classes")
			st := routerStats(t, rt.URL)
			live = live[:0]
			for id, b := range st.Backends {
				if b.Role != "follower" && b.Alive {
					live = append(live, id)
				}
			}
			return len(live) == 1 && st.Promotions >= promotions
		})
		return nodes[live[0]]
	}
	// shipped waits until every follower of primary holds its ledger.
	shipped := func(primary *fleettest.Node, followers ...*fleettest.Node) {
		t.Helper()
		fleettest.WaitFor(t, "the lease to ship to the followers", func() bool {
			want, _ := ledgerStats(primary.Service, dc)
			for _, f := range followers {
				if got, _ := ledgerStats(f.Service, dc); got.ReservedMillis != want.ReservedMillis || got.ActiveLeases != want.ActiveLeases {
					return false
				}
			}
			return true
		})
	}
	reserve := func() uint64 {
		t.Helper()
		resp, body := postJSON(t, rt.URL+"/v1/"+dc+"/select", `{"job_type":"medium","max_concurrent_cores":4}`)
		var sel struct {
			Lease uint64 `json:"lease"`
		}
		if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &sel) != nil || sel.Lease == 0 {
			t.Fatalf("select via router: status %d (%s)", resp.StatusCode, body)
		}
		return sel.Lease
	}
	// releaseOnce releases lease through the router, then requires a second
	// release to find nothing.
	releaseOnce := func(lease uint64) {
		t.Helper()
		for i, want := range []int{http.StatusOK, http.StatusNotFound} {
			if resp, body := postJSON(t, rt.URL+"/v1/"+dc+"/release", fmt.Sprintf(`{"lease":%d}`, lease)); resp.StatusCode != want {
				t.Fatalf("release %d of lease %d: status %d (%s), want %d", i+1, lease, resp.StatusCode, body, want)
			}
		}
	}
	conserved := func(n *fleettest.Node) {
		t.Helper()
		if st, _ := ledgerStats(n.Service, dc); st.ConservationErrorMillis != 0 {
			t.Fatalf("%s books: conservation_error_millis = %d", n.Service.NodeID(), st.ConservationErrorMillis)
		}
	}

	fleettest.WaitFor(t, "the router to see three live replicas, both followers streaming", func() bool {
		for id, n := range nodes {
			if b := routerStats(t, rt.URL).Backends[id]; !b.Alive {
				return false
			}
			if rst := n.Service.ReplicationStats(); n != p && !(rst.Connected && rst.SnapshotsApplied > 0) {
				return false
			}
		}
		return true
	})
	rep := run("dryselect=40,select=10,release=10,place=20,classes=10,server=10")
	for id := range nodes {
		if rep.Backends[id] == 0 {
			t.Fatalf("no reply served by %s: %v", id, rep.Backends)
		}
	}
	for id, n := range nodes {
		if rst := n.Service.ReplicationStats(); n != p && rst.ApplyLagP99Us >= 5_000_000 {
			t.Fatalf("%s applies frames %d µs behind (p99)", id, rst.ApplyLagP99Us)
		}
	}

	// First hop: p dies holding L1.
	l1 := reserve()
	shipped(p, nodes["node-f1"], nodes["node-f2"])
	p.Kill()
	first := promoted("node-p", 1)
	reserve() // writes recover
	releaseOnce(l1)
	conserved(first)

	// The survivor learns the promoted node's replication address from the
	// router's register acks and re-attaches to it.
	survivor := nodes["node-f1"]
	if first == survivor {
		survivor = nodes["node-f2"]
	}
	fleettest.WaitFor(t, "the surviving follower to re-attach to the promoted node", func() bool {
		return first.Service.ReplicationStats().Followers >= 1 && survivor.Service.PrimaryID() == first.Service.NodeID()
	})

	// Second hop: the promoted node dies holding L2.
	l2 := reserve()
	shipped(first, survivor)
	first.Kill()
	if second := promoted(first.Service.NodeID(), 2); second != survivor {
		t.Fatalf("promoted %s, want the surviving follower %s", second.Service.NodeID(), survivor.Service.NodeID())
	}
	releaseOnce(l2)
	conserved(survivor)
}

// ledgerStats is a datacenter's allocation ledger books, as /metrics reads them.
func ledgerStats(svc *service.Service, dc string) (ledger.Stats, bool) {
	st, ok := svc.Stats(dc)
	return st.Ledger, ok
}
