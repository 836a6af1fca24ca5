package service

import (
	"bytes"
	"encoding/json"
	"math"
	"net"
	"net/http"
	"net/netip"
	"strconv"
	"strings"
	"sync"
	"time"

	"harvest/internal/core"
	"harvest/internal/httpjson"
	"harvest/internal/ledger"
	"harvest/internal/obs"
	"harvest/internal/signalproc"
	"harvest/internal/tenant"
	"harvest/internal/wire"
)

// API is the HTTP front end of the characterization service: the REST
// surface YARN-H and HDFS-H poll in the paper's deployment (§6.2), stdlib
// only. Routes:
//
//	GET  /v1/datacenters               — served datacenters
//	GET  /v1/{dc}/classes              — the DC's utilization classes
//	GET  /v1/{dc}/servers/{id}/class   — a server's class
//	POST /v1/{dc}/select               — class selection (Alg. 1); reserves cores, returns a lease
//	POST /v1/{dc}/release              — return a lease's cores
//	POST /v1/{dc}/place                — replica placement (Alg. 2), advisory
//	POST /v1/{dc}/blocks               — create a block: place R replicas and record them in the block ledger
//	POST /v1/{dc}/reimage              — ingest a reimaging event: replicas on the server are lost, repairs enqueue
//	POST /v1/{dc}/telemetry            — live utilization ingestion (feeds the rings)
//	GET  /healthz                      — liveness
//	GET  /metrics                      — counters, latency quantiles, snapshot ages/staleness, ledger books
type API struct {
	svc   *Service
	mux   *http.ServeMux
	start time.Time
	opts  APIOptions

	ingestLimiter  *rateLimiter
	trustedProxies []netip.Prefix
	endpoints      map[string]*obs.EndpointMetrics

	// binary, when attached, is the sibling binary-dialect listener: its
	// advertised address rides on /v1/datacenters (how clients discover the
	// fast path) and its per-opcode counters ride on /metrics.
	binary     *BinaryServer
	binaryAddr string

	// rec holds the daemon's request traces (JSON dialect; the attached
	// binary server shares it so both dialects land in one ring).
	rec *obs.Recorder

	// scrapes keeps the *metricsResponse values /metrics refills in place.
	scrapes sync.Pool
}

// AttachBinary advertises a binary frame server alongside the JSON API:
// addr (host:port) is published on /v1/datacenters as binary_addr, and the
// server's per-opcode metrics appear on /metrics. Call before serving. The
// binary server inherits the API's trace recorder unless it already has one,
// so /debug/traces shows both dialects, and the API's ingest gate: with an
// ingest token configured it refuses the operations the token guards.
func (a *API) AttachBinary(b *BinaryServer, addr string) {
	a.binary = b
	a.binaryAddr = addr
	if b.rec == nil {
		b.rec = a.rec
	}
	b.ingestGated.Store(a.opts.IngestToken != "")
}

// Recorder exposes the API's trace recorder for the -debug-addr listener.
func (a *API) Recorder() *obs.Recorder { return a.rec }

// APIOptions hardens the ingest surface. The query endpoints stay open —
// they are read-mostly and cheap; telemetry ingestion mutates history that
// re-clustering trusts, so it gets the auth and the throttle.
type APIOptions struct {
	// IngestToken, when non-empty, requires callers of telemetry, reimage
	// and leases to present "Authorization: Bearer <token>";
	// everything else is 401 (the binary dialect refuses reimage outright).
	IngestToken string
	// IngestRatePerSource, when positive, caps telemetry POSTs per source IP
	// (token bucket, requests/second); excess requests get 429.
	IngestRatePerSource float64
	// IngestBurst is the token bucket depth. Zero means 2 seconds' worth
	// (minimum 1).
	IngestBurst int
	// TrustedProxies lists addresses (IPs or CIDRs) of harvestrouter
	// instances fronting this daemon. For connections from one of them, the
	// per-source rate limit keys on X-Forwarded-For (the original client)
	// instead of the connection's remote address — otherwise every emitter
	// proxied through the router would share the router's one bucket. The
	// header is only honored from these addresses: X-Forwarded-For is
	// client-controlled, so trusting it from arbitrary peers would let a
	// directly connected abuser mint a fresh bucket per request.
	TrustedProxies []string
}

// apiEndpoints names the instrumented endpoints, in /metrics display order.
var apiEndpoints = []string{"datacenters", "classes", "server_class", "select", "renew", "release", "place", "blocks", "reimage", "telemetry", "leases", "healthz", "metrics"}

// NewAPI wraps a service in its HTTP handler with default (open) options.
func NewAPI(svc *Service) *API { return NewAPIWith(svc, APIOptions{}) }

// NewAPIWith wraps a service in its HTTP handler with ingest hardening.
func NewAPIWith(svc *Service, opts APIOptions) *API {
	a := &API{
		svc:       svc,
		mux:       http.NewServeMux(),
		start:     time.Now(),
		opts:      opts,
		endpoints: make(map[string]*obs.EndpointMetrics, len(apiEndpoints)),
		rec:       obs.NewRecorder(obs.DefaultRingTraces),
	}
	if opts.IngestRatePerSource > 0 {
		burst := opts.IngestBurst
		if burst <= 0 {
			burst = int(2 * opts.IngestRatePerSource)
			if burst < 1 {
				burst = 1
			}
		}
		a.ingestLimiter = newRateLimiter(opts.IngestRatePerSource, float64(burst))
	}
	for _, s := range opts.TrustedProxies {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		if p, err := netip.ParsePrefix(s); err == nil {
			a.trustedProxies = append(a.trustedProxies, p.Masked())
			continue
		}
		if ip, err := netip.ParseAddr(s); err == nil {
			ip = ip.Unmap()
			a.trustedProxies = append(a.trustedProxies, netip.PrefixFrom(ip, ip.BitLen()))
			continue
		}
		// Skipping fails closed — the header just is not honored from here.
		slogger.Warn("ignoring invalid trusted proxy", "proxy", s)
	}
	for _, name := range apiEndpoints {
		a.endpoints[name] = &obs.EndpointMetrics{}
	}
	a.mux.HandleFunc("GET /v1/datacenters", a.instrument("datacenters", a.handleDatacenters))
	// The data plane: one route per row of the op table, served by the row's
	// JSON codec.
	for i := range wire.Ops {
		info := &wire.Ops[i]
		h := jsonOps[i](a, i)
		if info.Bearer {
			h = a.ingestGated(h)
		}
		a.mux.HandleFunc(info.Method+" /v1/{dc}/"+info.Route, a.instrument(info.Endpoint, h))
	}
	a.mux.HandleFunc("POST /v1/{dc}/telemetry", a.instrument("telemetry", a.ingestGated(a.handleTelemetry)))
	a.mux.HandleFunc("GET /v1/{dc}/leases", a.instrument("leases", a.ingestGated(a.handleLeases)))
	a.mux.HandleFunc("GET /healthz", a.instrument("healthz", a.handleHealthz))
	a.mux.HandleFunc("GET /metrics", a.instrument("metrics", a.handleMetrics))
	return a
}

// ingestGated puts a handler behind the ingest bearer token, when one is
// configured: telemetry and reimaging events mutate what re-clustering and the
// durability books trust, and lease listings name jobs and owners.
func (a *API) ingestGated(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !httpjson.BearerAuthorized(r, a.opts.IngestToken) {
			writeError(w, http.StatusUnauthorized, "missing or invalid ingest token")
			return
		}
		h(w, r)
	}
}

// ServeHTTP implements http.Handler.
func (a *API) ServeHTTP(w http.ResponseWriter, r *http.Request) { a.mux.ServeHTTP(w, r) }

// statusWriter is a request's pooled state: it captures the response status
// for instrumentation and carries what the codecs borrow for the length of the
// request — the trace, the body's bytes, the decoded telemetry samples, and
// the operations' scratch, which keeps each one's arguments, frame reply and
// JSON reply. A reply is built in place, so its lists reuse the state's
// storage and httpjson.Write is handed a pointer rather than a boxed copy.
type statusWriter struct {
	http.ResponseWriter
	status    int
	tr        *obs.Trace
	body      bytes.Buffer
	samples   []IngestSample
	sc        scratch
	telemetry telemetryResponse
}

// emptied returns s at length zero with its storage kept. It is never nil, so
// a list left empty encodes as [], not null.
func emptied[E any](s []E) []E {
	if s == nil {
		return []E{}
	}
	return s[:0]
}

// maxPooledBody is the most body a pooled state keeps between requests, so an
// abnormally large one does not stay parked in the pool; the samples decoded
// from a body go with it.
const maxPooledBody = 64 << 10

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

var statusWriters = sync.Pool{New: func() any { return &statusWriter{} }}

// stateOf is the pooled state instrument wrapped the request's writer in;
// every route is registered through instrument.
func stateOf(w http.ResponseWriter) *statusWriter { return w.(*statusWriter) }

func (a *API) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	m := a.endpoints[name]
	// The data-plane endpoints get request traces; the scrape endpoints stay
	// out of the ring so a tight Prometheus or health poll cannot churn real
	// request traces out of it.
	traced := name != "healthz" && name != "metrics"
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := statusWriters.Get().(*statusWriter)
		sw.ResponseWriter, sw.status = w, http.StatusOK
		var tr *obs.Trace
		if traced {
			// Adopt the caller's trace id (the router's, or a client's own) or
			// assign one, and echo it so the chain is followable end to end.
			id, _ := obs.ParseTraceID(r.Header.Get(obs.TraceHeader))
			if tr = a.rec.Begin(id, obs.DialectJSON, name, r.PathValue("dc")); tr != nil {
				w.Header()[obs.TraceHeader] = []string{obs.FormatTraceID(tr.ID)}
			}
		}
		sw.tr = tr
		h(sw, r)
		status := sw.status
		m.Observe(time.Since(start), status)
		sw.ResponseWriter, sw.tr = nil, nil
		if sw.body.Cap() > maxPooledBody {
			sw.body, sw.samples = bytes.Buffer{}, nil
		}
		statusWriters.Put(sw)
		tr.Finish(status)
	}
}

// rateLimiter is a per-source token bucket. Telemetry ingestion is far off
// the hot query path (batched POSTs at emitter cadence), so one small mutex
// over a keyed map is plenty.
type rateLimiter struct {
	mu      sync.Mutex
	rate    float64 // tokens per second
	burst   float64
	buckets map[string]*tokenBucket
}

type tokenBucket struct {
	tokens float64
	last   time.Time
}

// maxRateLimiterSources caps the keyed map so a source-spoofing client
// cannot grow it without bound; at the cap the map resets, which at worst
// briefly re-admits throttled sources.
const maxRateLimiterSources = 1 << 16

func newRateLimiter(rate, burst float64) *rateLimiter {
	return &rateLimiter{rate: rate, burst: burst, buckets: make(map[string]*tokenBucket)}
}

func (rl *rateLimiter) allow(source string, now time.Time) bool {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	b := rl.buckets[source]
	if b == nil {
		if len(rl.buckets) >= maxRateLimiterSources {
			rl.buckets = make(map[string]*tokenBucket)
		}
		b = &tokenBucket{tokens: rl.burst, last: now}
		rl.buckets[source] = b
	} else {
		b.tokens += now.Sub(b.last).Seconds() * rl.rate
		if b.tokens > rl.burst {
			b.tokens = rl.burst
		}
		b.last = now
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// sourceKey extracts the per-source rate-limit key: the client IP without
// the ephemeral port, so reconnects share one bucket.
func sourceKey(remoteAddr string) string {
	if host, _, err := net.SplitHostPort(remoteAddr); err == nil {
		return host
	}
	return remoteAddr
}

// sourceKeyFor resolves the rate-limit key for a request: the X-Forwarded-For
// client (first hop — what harvestrouter sets) when the connection comes from
// a configured trusted proxy, the connection's remote address otherwise.
func (a *API) sourceKeyFor(r *http.Request) string {
	if len(a.trustedProxies) > 0 && a.fromTrustedProxy(r.RemoteAddr) {
		if fwd := r.Header.Get("X-Forwarded-For"); fwd != "" {
			if first, _, ok := strings.Cut(fwd, ","); ok {
				fwd = first
			}
			return sourceKey(strings.TrimSpace(fwd))
		}
	}
	return sourceKey(r.RemoteAddr)
}

// fromTrustedProxy reports whether the connection's peer is one of the
// configured router addresses.
func (a *API) fromTrustedProxy(remoteAddr string) bool {
	addr, err := netip.ParseAddr(sourceKey(remoteAddr))
	if err != nil {
		return false
	}
	for _, p := range a.trustedProxies {
		if p.Contains(addr.Unmap()) {
			return true
		}
	}
	return false
}

// maxBodyBytes caps POST bodies: the select/place requests are tens of
// bytes, so 1 MiB is generous while keeping an abusive client from growing
// the pooled buffers without bound.
const maxBodyBytes = 1 << 20

// readBody reads a request body into the request's pooled state st. The
// bytes are the state's until the handler returns. net/http already bounds a
// body whose length it was told, so only a body of unknown length (or zero,
// what a hand-built request with an unsized reader carries), or one declared
// too large, is read through MaxBytesReader.
func readBody(st *statusWriter, r *http.Request) ([]byte, *rejection) {
	body := r.Body
	if r.ContentLength <= 0 || r.ContentLength > maxBodyBytes {
		body = http.MaxBytesReader(st, body, maxBodyBytes)
	}
	st.body.Reset()
	if _, err := st.body.ReadFrom(body); err != nil {
		return nil, reject(http.StatusBadRequest, "bad request body: "+err.Error())
	}
	return st.body.Bytes(), nil
}

// unmarshalBody decodes body into v with encoding/json.
func unmarshalBody(body []byte, v any) *rejection {
	if err := json.Unmarshal(body, v); err != nil {
		return reject(http.StatusBadRequest, "bad request body: "+err.Error())
	}
	return nil
}

// jsonOp is one operation's JSON codec: it makes the handler of the
// operation in row i of wire.Ops.
type jsonOp func(a *API, i int) http.HandlerFunc

// jsonIO is an operation's arguments, frame reply and JSON reply in a
// request's pooled state.
type jsonIO[Q, P, R any] struct {
	opIO[Q, P]
	r R
}

// jsonRow is the JSON codec of op: args reads the request into the
// operation's arguments, and render turns the frame reply op filled into the
// JSON reply, all three kept in the request's pooled state.
func jsonRow[Q, P, R any](args func(st *statusWriter, r *http.Request, q *Q) *rejection,
	op func(*Service, *scratch, string, *Q, *P, *obs.Trace) *rejection, render func(r *R, dc string, p *P)) jsonOp {
	return func(a *API, i int) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			st, dc := stateOf(w), r.PathValue("dc")
			io := slot[jsonIO[Q, P, R]](&st.sc, i)
			rej := args(st, r, &io.q)
			if rej == nil {
				rej = op(a.svc, &st.sc, dc, &io.q, &io.p, st.tr)
			}
			if rej != nil {
				writeError(w, rej.Status, rej.Message)
				return
			}
			render(&io.r, dc, &io.p)
			writeJSON(w, http.StatusOK, &io.r)
		}
	}
}

// jsonOps is the JSON dialect of the data plane, indexed like wire.Ops.
var jsonOps = opTable(map[wire.Op]jsonOp{
	wire.OpSelect:      jsonRow(bodyOf(scanSelect, selectRequest{}), (*Service).opSelect, (*selectResponse).render),
	wire.OpRelease:     jsonRow(bodyOf(scanLease, leaseRequest{}), (*Service).opRelease, (*releaseResponse).render),
	wire.OpRenew:       jsonRow(bodyOf(scanLease, leaseRequest{}), (*Service).opRenew, (*renewResponse).render),
	wire.OpPlace:       jsonRow(bodyOf(scanPlace, placeRequest{Writer: -1}), (*Service).opPlace, (*placeResponse).renderPlace),
	wire.OpPlaceBlock:  jsonRow(bodyOf(scanPlace, placeRequest{Writer: -1}), (*Service).opPlaceBlock, (*placeResponse).renderBlock),
	wire.OpReimage:     jsonRow(reimageArgs, (*Service).opReimage, (*reimageResponse).render),
	wire.OpClasses:     jsonRow(noArgs[wire.ClassesReq], (*Service).opClasses, (*classesResponse).render),
	wire.OpServerClass: jsonRow(serverInPath, (*Service).opServerClass, (*serverClassResponse).render),
})

// bodyOf reads an operation's arguments from its body: through scan, or when
// scan declines, through encoding/json over init.
func bodyOf[Q any](scan func([]byte) (Q, bool), init Q) func(*statusWriter, *http.Request, *Q) *rejection {
	return func(st *statusWriter, r *http.Request, q *Q) *rejection {
		body, rej := readBody(st, r)
		if rej != nil {
			return rej
		}
		var ok bool
		if *q, ok = scan(body); ok {
			return nil
		}
		*q = init
		return unmarshalBody(body, q)
	}
}

// noArgs is the arguments of an operation its route alone names.
func noArgs[Q any](*statusWriter, *http.Request, *Q) *rejection { return nil }

// writeJSON and writeError are the serving tier's shared response
// convention — pre-serialized, explicit Content-Length, never chunked, so
// pipelined clients (cmd/loadgen) parse harvestd and harvestrouter
// responses identically. The one implementation lives in internal/httpjson.
func writeJSON(w http.ResponseWriter, status int, v any) { httpjson.Write(w, status, v) }

func writeError(w http.ResponseWriter, status int, msg string) {
	httpjson.WriteError(w, status, msg)
}

type datacentersResponse struct {
	Datacenters []string `json:"datacenters"`
	// BinaryAddr, when present, is the host:port of this node's binary
	// frame listener (internal/wire) — the discovery hook -proto binary
	// clients use. Absent means the node speaks JSON only.
	BinaryAddr string `json:"binary_addr,omitempty"`
}

func (a *API) handleDatacenters(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, datacentersResponse{
		Datacenters: a.svc.Datacenters(),
		BinaryAddr:  a.binaryAddr,
	})
}

// classInfo is the JSON form of one utilization class plus its live usage.
type classInfo struct {
	ID                 int     `json:"id"`
	Pattern            string  `json:"pattern"`
	NumTenants         int     `json:"num_tenants"`
	NumServers         int     `json:"num_servers"`
	AvgUtilization     float64 `json:"avg_utilization"`
	PeakUtilization    float64 `json:"peak_utilization"`
	CurrentUtilization float64 `json:"current_utilization"`
	// AllocatedCores is the class's live allocation-ledger occupancy: cores
	// currently promised to selects that have not released (or expired).
	AllocatedCores float64 `json:"allocated_cores"`
	ExampleServer  int64   `json:"example_server"`
}

func classInfoOf(rec wire.ClassRec) classInfo {
	return classInfo{
		ID:                 int(rec.ID),
		Pattern:            signalproc.Pattern(rec.Pattern).String(),
		NumTenants:         int(rec.NumTenants),
		NumServers:         int(rec.NumServers),
		AvgUtilization:     rec.Avg,
		PeakUtilization:    rec.Peak,
		CurrentUtilization: rec.Current,
		AllocatedCores:     ledger.CoresOf(rec.AllocMillis),
		ExampleServer:      rec.ExampleServer,
	}
}

type classesResponse struct {
	Datacenter  string      `json:"datacenter"`
	Generation  uint64      `json:"generation"`
	AsOfSeconds float64     `json:"as_of_seconds"`
	Classes     []classInfo `json:"classes"`
}

func (r *classesResponse) render(dc string, p *wire.ClassesResp) {
	*r = classesResponse{Datacenter: dc, Generation: p.Generation, AsOfSeconds: p.AsOfSeconds, Classes: emptied(r.Classes)}
	for _, rec := range p.Classes {
		r.Classes = append(r.Classes, classInfoOf(rec))
	}
}

type serverClassResponse struct {
	Datacenter string    `json:"datacenter"`
	Generation uint64    `json:"generation"`
	Server     int64     `json:"server"`
	Class      classInfo `json:"class"`
}

// serverInPath reads server class's argument, the server id in its path.
func serverInPath(_ *statusWriter, r *http.Request, q *wire.ServerClassReq) *rejection {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		return reject(http.StatusBadRequest, "server id must be an integer")
	}
	q.Server = id
	return nil
}

func (r *serverClassResponse) render(dc string, p *wire.ServerClassResp) {
	*r = serverClassResponse{Datacenter: dc, Generation: p.Generation, Server: p.Server, Class: classInfoOf(p.Class)}
}

// telemetrySample is the wire form of one ingested observation, as
// encoding/json decodes it when scanTelemetry declines. Exactly one of tenant
// / server must be present (pointers distinguish "absent" from the valid id
// 0); at_seconds is an offset on the telemetry clock and defaults to one slot
// after the subject's latest sample.
type telemetrySample struct {
	Tenant      *int64  `json:"tenant"`
	Server      *int64  `json:"server"`
	AtSeconds   float64 `json:"at_seconds"`
	Utilization float64 `json:"utilization"`
}

// sample converts the decoded form: an absent subject is -1, as scanTelemetry
// leaves it.
func (s telemetrySample) sample() IngestSample {
	id, server := int64(-1), int64(-1)
	if s.Tenant != nil {
		id = *s.Tenant
	}
	if s.Server != nil {
		server = *s.Server
	}
	return ingestSample(id, server, s.AtSeconds, s.Utilization)
}

type telemetryRequest struct {
	Samples []telemetrySample `json:"samples"`
}

// maxTelemetryOffsetSeconds bounds a sample's telemetry-clock offset (~31
// years — far beyond any replay). It must stay well below the ~292-year
// time.Duration ceiling: the float64→int64 nanosecond conversion on an
// out-of-range value is implementation-defined and would corrupt the
// store's monotonic clock. Anything larger is a client bug, rejected per
// sample.
const maxTelemetryOffsetSeconds = 1e9

type telemetryResponse struct {
	Datacenter     string  `json:"datacenter"`
	Accepted       int     `json:"accepted"`
	Rejected       int     `json:"rejected"`
	HorizonSeconds float64 `json:"horizon_seconds"`
}

// scanTelemetry decodes a telemetry body the scanner accepts, appending its
// samples to dst; false means it declined, and the body is encoding/json's.
// A subject left out is -1, as in the fallback.
func scanTelemetry(body []byte, dst []IngestSample) ([]IngestSample, bool) {
	var s httpjson.Scanner
	s.Reset(body)
	for s.Object(); s.Next(); {
		if s.Field("samples") < 0 {
			break
		}
		for s.Array(); s.Next(); {
			id, server, at, util := int64(-1), int64(-1), 0.0, 0.0
			for s.Object(); s.Next(); {
				switch s.Field("tenant", "server", "at_seconds", "utilization") {
				case 0:
					id = s.Int()
				case 1:
					server = s.Int()
				case 2:
					at = s.Float()
				case 3:
					util = s.Float()
				}
			}
			dst = append(dst, ingestSample(id, server, at, util))
		}
	}
	return dst, s.Done()
}

// ingestSample turns one wire sample into what Ingest takes; both decoders
// call it. A negative id leaves that subject out.
func ingestSample(id, server int64, atSeconds, util float64) IngestSample {
	// Written so NaN fails too: both comparisons are false for NaN, so only
	// finite offsets inside the bound proceed to the conversion.
	if !(atSeconds >= 0 && atSeconds <= maxTelemetryOffsetSeconds) {
		// An absurd offset would corrupt the store's telemetry clock; poison
		// the sample (no subject) so Ingest counts it rejected.
		return IngestSample{Tenant: -1, Server: -1}
	}
	return IngestSample{
		Tenant: tenant.ID(id),
		Server: tenant.ServerID(server),
		At:     time.Duration(atSeconds * float64(time.Second)),
		Value:  util,
	}
}

func (a *API) handleTelemetry(w http.ResponseWriter, r *http.Request) {
	if a.ingestLimiter != nil && !a.ingestLimiter.allow(a.sourceKeyFor(r), a.svc.cfg.Clock.Now()) {
		writeError(w, http.StatusTooManyRequests, "ingest rate limit exceeded for this source")
		return
	}
	dc, st := r.PathValue("dc"), stateOf(w)
	body, rej := readBody(st, r)
	if rej != nil {
		writeError(w, rej.Status, rej.Message)
		return
	}
	samples, ok := scanTelemetry(body, st.samples[:0])
	if !ok {
		var req telemetryRequest
		if rej := unmarshalBody(body, &req); rej != nil {
			writeError(w, rej.Status, rej.Message)
			return
		}
		samples = samples[:0]
		for _, s := range req.Samples {
			samples = append(samples, s.sample())
		}
	}
	st.samples = samples
	if len(samples) == 0 {
		writeError(w, http.StatusBadRequest, "no samples")
		return
	}
	res, err := a.svc.Ingest(dc, samples)
	if err != nil {
		rej := rejectionOf(err)
		writeError(w, rej.Status, rej.Message)
		return
	}
	resp := &st.telemetry
	*resp = telemetryResponse{
		Datacenter:     dc,
		Accepted:       res.Accepted,
		Rejected:       res.Rejected,
		HorizonSeconds: res.Horizon.Seconds(),
	}
	writeJSON(w, http.StatusOK, resp)
}

// selectRequest is select's arguments. job_type is "short", "medium" or
// "long"; absent, the job is classified from last_run_seconds, and with that
// absent too it is medium (the first-guess rule). A reserved lease holds its
// cores for hold_seconds (0 = the server default).
type selectRequest struct {
	JobType            string  `json:"job_type"`
	LastRunSeconds     float64 `json:"last_run_seconds"`
	MaxConcurrentCores float64 `json:"max_concurrent_cores"`
	HoldSeconds        float64 `json:"hold_seconds"`
	DryRun             bool    `json:"dry_run"`
	// JobID and Owner ride on the lease through the ledger and surface on
	// GET /v1/{dc}/leases and /debug/traces, answering "whose lease is this"
	// without a side channel. They never influence selection, and only the
	// JSON dialect has fields for them.
	JobID string `json:"job_id,omitempty"`
	Owner string `json:"owner,omitempty"`
}

// jobTypes are the job_type names, indexed by their wire.Job* code.
var jobTypes = [...]string{wire.JobShort: "short", wire.JobMedium: "medium", wire.JobLong: "long"}

// jobCode maps job_type to its wire.Job* code: absent, the job is classified
// from its last run, and a name jobTypes lacks is rejected by the operation.
// jobName is the inverse.
func jobCode(name string) uint8 {
	if name == "" {
		return wire.JobFromLastRun
	}
	for code, n := range jobTypes {
		if n == name {
			return uint8(code)
		}
	}
	return math.MaxUint8
}

func jobName(code uint8) string {
	switch {
	case int(code) < len(jobTypes):
		return jobTypes[code]
	case code == wire.JobFromLastRun:
		return ""
	}
	return "unknown"
}

// scanSelect decodes a select body the scanner accepts; false means it
// declined (job_id and owner included), and the body is encoding/json's.
func scanSelect(body []byte) (req selectRequest, ok bool) {
	var s httpjson.Scanner
	s.Reset(body)
	for s.Object(); s.Next(); {
		switch s.Field("job_type", "last_run_seconds", "max_concurrent_cores", "hold_seconds", "dry_run") {
		case 0:
			if i := s.Enum(jobTypes[:]...); i >= 0 {
				req.JobType = jobTypes[i]
			}
		case 1:
			req.LastRunSeconds = s.Float()
		case 2:
			req.MaxConcurrentCores = s.Float()
		case 3:
			req.HoldSeconds = s.Float()
		case 4:
			req.DryRun = s.Bool()
		}
	}
	return req, s.Done()
}

type selectResponse struct {
	Datacenter  string    `json:"datacenter"`
	Generation  uint64    `json:"generation"`
	JobType     string    `json:"job_type"`
	Satisfiable bool      `json:"satisfiable"`
	Classes     []int     `json:"classes"`
	Headrooms   []float64 `json:"headrooms"`
	// Lease identifies the reservation (0 on dry-run or unsatisfiable
	// selects); Granted is the cores reserved per entry of Classes.
	Lease            uint64    `json:"lease,omitempty"`
	Granted          []float64 `json:"granted,omitempty"`
	ExpiresInSeconds float64   `json:"expires_in_seconds,omitempty"`
}

// render splits the frame's grants into the parallel columns JSON reports;
// granted only when a lease holds them.
func (r *selectResponse) render(dc string, p *wire.SelectResp) {
	*r = selectResponse{
		Datacenter:       dc,
		Generation:       p.Generation,
		JobType:          core.JobType(p.Job).String(),
		Satisfiable:      p.Satisfiable,
		Classes:          emptied(r.Classes),
		Headrooms:        emptied(r.Headrooms),
		Lease:            p.Lease,
		Granted:          r.Granted[:0],
		ExpiresInSeconds: p.ExpiresIn,
	}
	for _, g := range p.Classes {
		r.Classes, r.Headrooms = append(r.Classes, int(g.Class)), append(r.Headrooms, g.Headroom)
		if p.Lease != 0 {
			r.Granted = append(r.Granted, g.Granted)
		}
	}
}

// leaseInfo is one live lease on GET /v1/{dc}/leases.
type leaseInfo struct {
	Lease            uint64    `json:"lease"`
	JobID            string    `json:"job_id,omitempty"`
	Owner            string    `json:"owner,omitempty"`
	ExpiresInSeconds float64   `json:"expires_in_seconds,omitempty"`
	TotalCores       float64   `json:"total_cores"`
	Classes          []int     `json:"classes"`
	Cores            []float64 `json:"cores"`
}

type leasesResponse struct {
	Datacenter string      `json:"datacenter"`
	Total      int         `json:"total"`
	Offset     int         `json:"offset"`
	Leases     []leaseInfo `json:"leases"`
}

// maxLeasePage caps one page of GET /v1/{dc}/leases.
const maxLeasePage = 1000

// handleLeases pages through the DC's live leases — the operator's answer to
// "who is holding the harvested cores right now".
func (a *API) handleLeases(w http.ResponseWriter, r *http.Request) {
	dc := r.PathValue("dc")
	q := r.URL.Query()
	offset, limit := 0, 100
	if s := q.Get("offset"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 0 {
			writeError(w, http.StatusBadRequest, "offset must be a non-negative integer")
			return
		}
		offset = v
	}
	if s := q.Get("limit"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 1 || v > maxLeasePage {
			writeError(w, http.StatusBadRequest,
				"limit must be in [1, "+strconv.Itoa(maxLeasePage)+"]")
			return
		}
		limit = v
	}
	page, total, ok := a.svc.Leases(dc, offset, limit)
	if !ok {
		rej := rejectionOf(unknownDC(dc))
		writeError(w, rej.Status, rej.Message)
		return
	}
	resp := leasesResponse{Datacenter: dc, Total: total, Offset: offset, Leases: make([]leaseInfo, len(page))}
	for i, ls := range page {
		info := &resp.Leases[i]
		*info = leaseInfo{
			Lease:            ls.ID,
			JobID:            ls.Meta.JobID,
			Owner:            ls.Meta.Owner,
			ExpiresInSeconds: a.svc.secondsUntil(ls.ExpiresAt),
			TotalCores:       ledger.CoresOf(ls.TotalMillis()),
			Classes:          make([]int, 0, len(ls.Grants)),
			Cores:            make([]float64, 0, len(ls.Grants)),
		}
		for _, g := range ls.Grants {
			info.Classes, info.Cores = append(info.Classes, int(g.Class)), append(info.Cores, ledger.CoresOf(g.Millis))
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// leaseRequest is the body of both renew and release. hold_seconds, which
// only renew reads, follows select's convention: 0 (or absent) means the
// server-side default TTL.
type leaseRequest struct {
	Lease       uint64  `json:"lease"`
	HoldSeconds float64 `json:"hold_seconds"`
}

// scanLease decodes a renew or release body the scanner accepts; false means
// it declined, and the body is encoding/json's.
func scanLease(body []byte) (req leaseRequest, ok bool) {
	var s httpjson.Scanner
	s.Reset(body)
	for s.Object(); s.Next(); {
		switch s.Field("lease", "hold_seconds") {
		case 0:
			req.Lease = s.Uint()
		case 1:
			req.HoldSeconds = s.Float()
		}
	}
	return req, s.Done()
}

type renewResponse struct {
	Datacenter       string  `json:"datacenter"`
	Lease            uint64  `json:"lease"`
	TotalCores       float64 `json:"total_cores"`
	ExpiresInSeconds float64 `json:"expires_in_seconds,omitempty"`
}

func (r *renewResponse) render(dc string, p *wire.RenewResp) {
	*r = renewResponse{Datacenter: dc, Lease: p.Lease, TotalCores: ledger.CoresOf(p.TotalMillis), ExpiresInSeconds: p.ExpiresIn}
}

type releaseResponse struct {
	Datacenter    string    `json:"datacenter"`
	Lease         uint64    `json:"lease"`
	ReleasedCores float64   `json:"released_cores"`
	Classes       []int     `json:"classes"`
	Cores         []float64 `json:"cores"`
}

func (r *releaseResponse) render(dc string, p *wire.ReleaseResp) {
	*r = releaseResponse{Datacenter: dc, Lease: p.Lease, ReleasedCores: ledger.CoresOf(p.TotalMillis),
		Classes: emptied(r.Classes), Cores: emptied(r.Cores)}
	for _, g := range p.Grants {
		r.Classes, r.Cores = append(r.Classes, int(g.Class)), append(r.Cores, ledger.CoresOf(g.Millis))
	}
}

// placeRequest is the body of both place and blocks. Writer is the creating
// server (optional; -1 or absent means an external writer).
type placeRequest struct {
	Replication        int   `json:"replication"`
	Writer             int64 `json:"writer"`
	RelaxedEnvironment bool  `json:"relaxed_environment"`
}

// scanPlace decodes a place or blocks body the scanner accepts; false means it
// declined, and the body is encoding/json's. A replication that overflows an
// int declines, as encoding/json fails it (on 32-bit platforms).
func scanPlace(body []byte) (placeRequest, bool) {
	var s httpjson.Scanner
	s.Reset(body)
	req, fits := placeRequest{Writer: -1}, true
	for s.Object(); s.Next(); {
		switch s.Field("replication", "writer", "relaxed_environment") {
		case 0:
			n := s.Int()
			req.Replication, fits = int(n), int64(int(n)) == n
		case 1:
			req.Writer = s.Int()
		case 2:
			req.RelaxedEnvironment = s.Bool()
		}
	}
	return req, fits && s.Done()
}

// placeResponse answers both; Block is the ledger's id for a created block.
type placeResponse struct {
	Datacenter string  `json:"datacenter"`
	Generation uint64  `json:"generation"`
	Block      uint64  `json:"block,omitempty"`
	Replicas   []int64 `json:"replicas"`
}

func (r *placeResponse) renderPlace(dc string, p *wire.PlaceResp) {
	*r = placeResponse{Datacenter: dc, Generation: p.Generation, Replicas: append(emptied(r.Replicas), p.Replicas...)}
}

func (r *placeResponse) renderBlock(dc string, p *wire.PlaceBlockResp) {
	*r = placeResponse{Datacenter: dc, Generation: p.Generation, Block: p.Block, Replicas: append(emptied(r.Replicas), p.Replicas...)}
}

// reimageRequest names the reimaged server; the pointer distinguishes an
// absent server from the valid id 0. It points at server when the scanner or
// a frame read it.
type reimageRequest struct {
	Server *int64 `json:"server"`
	server int64
}

type reimageResponse struct {
	Datacenter string `json:"datacenter"`
	Server     int64  `json:"server"`
	// Lost is how many replicas this event hit; Pending is the DC's total
	// replica slots currently awaiting re-replication.
	Lost    int   `json:"lost"`
	Pending int64 `json:"pending"`
}

// scanReimage decodes a reimage body the scanner accepts; false means it
// declined (an absent server included), and the body is encoding/json's.
func scanReimage(body []byte) (server int64, ok bool) {
	var s httpjson.Scanner
	s.Reset(body)
	for s.Object(); s.Next(); {
		if s.Field("server") == 0 {
			server, ok = s.Int(), true
		}
	}
	return server, ok && s.Done()
}

// reimageArgs reads reimage's body: through scanReimage, or when it declines,
// through encoding/json.
func reimageArgs(st *statusWriter, r *http.Request, q *reimageRequest) *rejection {
	body, rej := readBody(st, r)
	if rej != nil {
		return rej
	}
	var ok bool
	if q.server, ok = scanReimage(body); ok {
		q.Server = &q.server
		return nil
	}
	*q = reimageRequest{}
	return unmarshalBody(body, q)
}

func (r *reimageResponse) render(dc string, p *wire.ReimageResp) {
	*r = reimageResponse{Datacenter: dc, Server: p.Server, Lost: int(p.Lost), Pending: int64(p.Pending)}
}

type healthzResponse struct {
	Status      string `json:"status"`
	Datacenters int    `json:"datacenters"`
}

func (a *API) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, healthzResponse{Status: "ok", Datacenters: len(a.svc.Datacenters())})
}

// endpointRow is one endpoint's row on /metrics under harvestd's family names:
// the fleet's shared row, and one blank field per Prometheus family naming
// the column it reads (see obs.WriteMetrics).
type endpointRow struct {
	obs.EndpointStats
	_ struct{} `prom:"harvestd_requests_total,counter,of=Requests" help:"Requests served, by endpoint and dialect."`
	_ struct{} `prom:"harvestd_request_errors_total,counter,of=Errors" help:"4xx/5xx responses, by endpoint and dialect."`
	_ struct{} `prom:"harvestd_request_latency_microseconds,histogram,of=Latency" help:"Request latency by endpoint and dialect, in microseconds."`
}

// metricsResponse is the daemon's /metrics: the JSON document and the
// Prometheus exposition both render from its tags (obs.WriteMetrics). A
// metric is one tagged field, here or in a struct below. Latencies are in
// microseconds — the histograms' native resolution — so the le bounds stay
// exact integers (see obs.BucketUpperMicros).
type metricsResponse struct {
	UptimeSeconds float64                `json:"uptime_seconds" prom:"harvestd_uptime_seconds,gauge" help:"Seconds since the daemon started."`
	TotalRequests uint64                 `json:"total_requests"`
	QPS           float64                `json:"qps"`
	Endpoints     map[string]endpointRow `json:"endpoints" labels:"endpoint,dialect=json"`
	Binary        *BinaryStats           `json:"binary,omitempty"`
	Replication   ReplicationStats       `json:"replication"`
	Datacenters   map[string]ShardStats  `json:"datacenters" labels:"dc"`
	// Role is the node's role as a number, under its one node id.
	Role map[string]uint64 `json:"-" prom:"harvestd_replication_role,gauge" labels:"node" help:"1 when this node is the primary, 0 when a follower."`
	bin  BinaryStats       // what Binary points at when the listener is attached
}

func (a *API) handleMetrics(w http.ResponseWriter, r *http.Request) {
	resp, _ := a.scrapes.Get().(*metricsResponse)
	if resp == nil {
		resp = &metricsResponse{
			Endpoints:   make(map[string]endpointRow, len(a.endpoints)),
			Datacenters: make(map[string]ShardStats, len(a.svc.Datacenters())),
			Role:        make(map[string]uint64, 1),
		}
	}
	defer a.scrapes.Put(resp)
	resp.UptimeSeconds = time.Since(a.start).Seconds()
	resp.TotalRequests, resp.QPS, resp.Binary = 0, 0, nil
	for name, m := range a.endpoints {
		row := endpointRow{EndpointStats: m.Stats()}
		resp.TotalRequests += row.Requests
		resp.Endpoints[name] = row
	}
	if a.binary != nil {
		a.binary.readStats(&resp.bin)
		resp.bin.Addr = a.binaryAddr
		for _, row := range resp.bin.Endpoints {
			resp.TotalRequests += row.Requests
		}
		resp.Binary = &resp.bin
	}
	if resp.UptimeSeconds > 0 {
		resp.QPS = float64(resp.TotalRequests) / resp.UptimeSeconds
	}
	a.svc.readReplicationStats(&resp.Replication)
	for _, dc := range a.svc.Datacenters() {
		// Filled through a copy, so the ledger's per-class slices it holds are
		// reused; the map's entry is overwritten, never reinserted.
		st := resp.Datacenters[dc]
		if a.svc.readStats(dc, &st) {
			resp.Datacenters[dc] = st
		}
	}
	clear(resp.Role)
	resp.Role[resp.Replication.NodeID] = 0
	if resp.Replication.Role == "primary" {
		resp.Role[resp.Replication.NodeID] = 1
	}
	obs.WriteMetrics(w, resp, obs.PrometheusFormat(r))
}
