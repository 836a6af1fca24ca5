package service_test

import (
	"bytes"
	"fmt"
	"net/http"
	"testing"

	"harvest/internal/core"
	"harvest/internal/service"
)

// replyWriter is a ResponseWriter that keeps one header map and the last
// reply's bytes across runs.
type replyWriter struct {
	h      http.Header
	status int
	body   []byte
}

func (w *replyWriter) Header() http.Header { return w.h }
func (w *replyWriter) Write(b []byte) (int, error) {
	w.body = append(w.body, b...)
	return len(b), nil
}
func (w *replyWriter) WriteHeader(status int) { w.status = status }

// dataPlane serves requests through API.ServeHTTP the way the allocation
// budgets need: the request, its body reader and the writer are the test's
// and reused, so a request costs what the server allocates.
type dataPlane struct {
	t   *testing.T
	api *service.API
	w   replyWriter
}

func newDataPlane(t *testing.T, svc *service.Service) *dataPlane {
	return &dataPlane{t: t, api: service.NewAPI(svc), w: replyWriter{h: http.Header{}}}
}

// request builds a reusable request; a POST reads its body from b's reader.
func (p *dataPlane) request(method, path string, b *replayBody) *http.Request {
	req, err := http.NewRequest(method, "http://harvestd"+path, nil)
	if err != nil {
		p.t.Fatal(err)
	}
	if method == http.MethodPost {
		req.Body = b
	}
	return req
}

// serve answers req with body (ignored for a GET) and fails the test unless
// the answer is 200. The reply's bytes are in p.w.body until the next serve.
func (p *dataPlane) serve(req *http.Request, b *replayBody, body []byte) {
	if req.Method == http.MethodPost {
		b.Reset(body)
		req.ContentLength = int64(len(body))
	}
	clear(p.w.h)
	p.w.status, p.w.body = http.StatusOK, p.w.body[:0]
	p.api.ServeHTTP(&p.w, req)
	if p.w.status != http.StatusOK {
		p.t.Fatalf("%s %s %s answered %d: %s", req.Method, req.URL.Path, body, p.w.status, p.w.body)
	}
}

// reserveLeases reserves n one-core short leases and renders a {"lease":id}
// body for each.
func reserveLeases(t *testing.T, svc *service.Service, n int) [][]byte {
	t.Helper()
	bodies := make([][]byte, n)
	for i := range bodies {
		g, _, err := svc.SelectReserve("DC-9", core.JobRequest{Type: core.JobShort, MaxConcurrentCores: 1}, -1)
		if err != nil || !g.Reserved() {
			t.Fatalf("reserve: %+v, %v", g, err)
		}
		bodies[i] = fmt.Appendf(nil, `{"lease":%d}`, g.Lease)
	}
	return bodies
}

// fixed is a body generator that posts the same body every run.
func fixed(body string) func() []byte {
	b := []byte(body)
	return func() []byte { return b }
}

// sequence is a body generator that posts each of bodies once, in order.
func sequence(bodies [][]byte) func() []byte {
	return func() []byte {
		b := bodies[0]
		bodies = bodies[1:]
		return b
	}
}

// TestJSONDataPlaneAllocs is the JSON data plane's object budget (DESIGN.md
// "Hot paths"): every body is scanned off the request's bytes and every reply
// is built in the request's pooled state and handed to encoding/json by
// pointer, so a request costs what routing, the trace header and the
// Content-Length cost. A second table holds each reply to what encoding/json
// makes of the same reply built afresh, as the handlers built it before they
// reused storage: an empty list is [], never null, from a new pooled state
// and from one that served a longer reply before.
func TestJSONDataPlaneAllocs(t *testing.T) {
	svc := newSlotService(t)
	defer svc.Close()
	snap, _ := svc.Snapshot("DC-9")
	serverClass := fmt.Sprintf("/v1/DC-9/servers/%d/class", snap.Clustering.Classes[0].Servers[0])
	p := newDataPlane(t, svc)
	var body replayBody

	const runs = 50
	t.Run("budgets", func(t *testing.T) {
		if raceEnabled {
			t.Skip("allocation counts are not meaningful under -race")
		}
		renew := reserveLeases(t, svc, 1)[0]
		renew = append(renew[:len(renew)-1], `,"hold_seconds":60}`...)
		budgets := []struct {
			name, method, path string
			max                float64
			next               func() []byte
			want               string // in the last reply
		}{
			{"reserving select", "POST", "/v1/DC-9/select", 5, fixed(`{"job_type":"short","max_concurrent_cores":1}`), `"lease":`},
			{"dry select by job_type", "POST", "/v1/DC-9/select", 5, fixed(`{"job_type":"medium","max_concurrent_cores":2,"dry_run":true}`), `"satisfiable":true`},
			{"dry select by last_run_seconds", "POST", "/v1/DC-9/select", 5, fixed(`{"last_run_seconds":45,"max_concurrent_cores":2,"dry_run":true}`), `"satisfiable":true`},
			{"release", "POST", "/v1/DC-9/release", 4, sequence(reserveLeases(t, svc, runs+2)), `"released_cores":1,`},
			{"renew", "POST", "/v1/DC-9/renew", 4, fixed(string(renew)), `"expires_in_seconds":`},
			{"classes", "GET", "/v1/DC-9/classes", 5, nil, `"classes":[{`},
			{"server class", "GET", serverClass, 6, nil, `"class":{`},
			{"place", "POST", "/v1/DC-9/place", 4, fixed(`{"replication":3}`), `"replicas":[`},
		}
		for _, b := range budgets {
			req := p.request(b.method, b.path, &body)
			next := b.next
			if next == nil {
				next = func() []byte { return nil }
			}
			p.serve(req, &body, next()) // warms the pooled state for this reply; AllocsPerRun warms once more
			got := testing.AllocsPerRun(runs, func() { p.serve(req, &body, next()) })
			if got > b.max {
				t.Errorf("%s: %v allocs per request, budget %v", b.name, got, b.max)
			}
			if !bytes.Contains(p.w.body, []byte(b.want)) {
				t.Errorf("%s replied %s, want %s in it", b.name, p.w.body, b.want)
			}
		}
	})
	t.Run("reply bytes", func(t *testing.T) {
		lease := func() []byte { return reserveLeases(t, svc, 1)[0] }
		tenant := snap.Clustering.Classes[0].Tenants[0]
		telemetry := fmt.Appendf(nil, `{"samples":[{"tenant":%d,"utilization":0.5}]}`, tenant)
		renew := lease()
		short := []byte(`{"job_type":"short","max_concurrent_cores":1}`)
		unsatisfiable := []byte(`{"job_type":"long","max_concurrent_cores":1e9}`)
		replicas := []byte(`{"replication":3}`)
		// Each row's bodies are served in order, the first from a new pooled
		// state and the rest from the one it left; want is in the first reply.
		rows := []struct {
			endpoint, method, path string
			bodies                 func() [][]byte
			want                   string
		}{
			{"select", "POST", "/v1/DC-9/select", func() [][]byte {
				return [][]byte{short, []byte(`{"job_type":"medium","max_concurrent_cores":2,"dry_run":true}`),
					[]byte(`{"last_run_seconds":45,"max_concurrent_cores":2,"dry_run":true}`)}
			}, `"lease":`},
			{"select", "POST", "/v1/DC-9/select", func() [][]byte {
				return [][]byte{unsatisfiable, short, unsatisfiable}
			}, `"satisfiable":false,"classes":[],"headrooms":[]}`},
			{"release", "POST", "/v1/DC-9/release", func() [][]byte { return [][]byte{lease(), lease()} }, `"released_cores":1,"classes":[`},
			{"renew", "POST", "/v1/DC-9/renew", func() [][]byte { return [][]byte{renew, renew} }, `"total_cores":1,`},
			{"classes", "GET", "/v1/DC-9/classes", func() [][]byte { return [][]byte{nil, nil} }, `"classes":[{`},
			{"server_class", "GET", serverClass, func() [][]byte { return [][]byte{nil, nil} }, `"class":{`},
			{"place", "POST", "/v1/DC-9/place", func() [][]byte { return [][]byte{replicas, replicas} }, `"replicas":[`},
			{"blocks", "POST", "/v1/DC-9/blocks", func() [][]byte { return [][]byte{replicas, replicas} }, `"block":`},
			{"telemetry", "POST", "/v1/DC-9/telemetry", func() [][]byte { return [][]byte{telemetry, telemetry} }, `"accepted":1,`},
			{"reimage", "POST", "/v1/DC-9/reimage", func() [][]byte {
				return [][]byte{fmt.Appendf(nil, `{"server":%d}`, snap.Clustering.Classes[0].Servers[0])}
			}, `"lost":`},
			// Last, as it forfeits every live lease's grants: a re-key with
			// no class to move them to leaves the leases holding nothing.
			{"release", "POST", "/v1/DC-9/release", func() [][]byte {
				empty := [][]byte{lease(), lease()}
				led, _ := svc.Ledgers("DC-9")
				led.Rekey(led.Generation(), len(snap.Clustering.Classes), nil)
				return [][]byte{empty[0], lease(), empty[1]}
			}, `"released_cores":0,"classes":[],"cores":[]}`},
		}
		for _, row := range rows {
			req := p.request(row.method, row.path, &body)
			service.FreshRequestStates()
			for i, b := range row.bodies() {
				p.serve(req, &body, b)
				if i == 0 && !bytes.Contains(p.w.body, []byte(row.want)) {
					t.Errorf("%s %s replied %s, want %s in it", row.path, b, p.w.body, row.want)
				}
				want, err := service.RebuiltReply(row.endpoint, p.w.body)
				if err != nil {
					t.Fatalf("%s %s: %v", row.path, b, err)
				}
				if !bytes.Equal(p.w.body, want) {
					t.Errorf("%s %s (body %d) replied\n%s\nwant\n%s", row.path, b, i, p.w.body, want)
				}
			}
		}
	})
}
