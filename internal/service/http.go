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
	// IngestToken, when non-empty, requires callers of telemetry, reimage,
	// leases and promote to present "Authorization: Bearer <token>";
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
var apiEndpoints = []string{"datacenters", "classes", "server_class", "select", "renew", "release", "place", "blocks", "reimage", "telemetry", "leases", "promote", "healthz", "metrics"}

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
	codecs := map[wire.Op]http.HandlerFunc{
		wire.OpSelect:      a.handleSelect,
		wire.OpRelease:     a.handleRelease,
		wire.OpRenew:       a.handleRenew,
		wire.OpPlace:       a.handlePlacement(a.svc.opPlace),
		wire.OpPlaceBlock:  a.handlePlacement(a.svc.opPlaceBlock),
		wire.OpReimage:     a.handleReimage,
		wire.OpClasses:     a.handleClasses,
		wire.OpServerClass: a.handleServerClass,
	}
	for i := range wire.Ops {
		info := &wire.Ops[i]
		h := codecs[info.Op]
		if h == nil {
			panic("service: request opcode " + info.Name + " has no JSON codec")
		}
		if info.Bearer {
			h = a.ingestGated(h)
		}
		a.mux.HandleFunc(info.Method+" /v1/{dc}/"+info.Route, a.instrument(info.Endpoint, h))
	}
	a.mux.HandleFunc("POST /v1/{dc}/telemetry", a.instrument("telemetry", a.ingestGated(a.handleTelemetry)))
	a.mux.HandleFunc("GET /v1/{dc}/leases", a.instrument("leases", a.ingestGated(a.handleLeases)))
	a.mux.HandleFunc("POST /v1/promote", a.instrument("promote", a.ingestGated(a.handlePromote)))
	a.mux.HandleFunc("GET /healthz", a.instrument("healthz", a.handleHealthz))
	a.mux.HandleFunc("GET /metrics", a.instrument("metrics", a.handleMetrics))
	return a
}

// ingestGated puts a handler behind the ingest bearer token, when one is
// configured: telemetry and reimaging events mutate what re-clustering and the
// durability books trust, lease listings name jobs and owners, and an open
// promotion endpoint would let anyone split the brain.
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
// request — the trace, and the operations' scratch.
type statusWriter struct {
	http.ResponseWriter
	status int
	tr     *obs.Trace
	sc     scratch
}

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
				w.Header().Set(obs.TraceHeader, obs.FormatTraceID(tr.ID))
			}
		}
		sw.tr = tr
		h(sw, r)
		status := sw.status
		m.Observe(time.Since(start), status)
		sw.ResponseWriter, sw.tr = nil, nil
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

var bodyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxBodyBytes caps POST bodies: the select/place requests are tens of
// bytes, so 1 MiB is generous while keeping an abusive client from growing
// the pooled buffers without bound.
const maxBodyBytes = 1 << 20

// readBody reads and unmarshals a request body through a pooled buffer,
// answering 400 itself when it cannot.
func readBody(w http.ResponseWriter, r *http.Request, v any) bool {
	buf := bodyBufs.Get().(*bytes.Buffer)
	buf.Reset()
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err == nil {
		err = json.Unmarshal(buf.Bytes(), v)
	}
	// Never park an abnormally grown buffer in the pool.
	if buf.Cap() <= 64<<10 {
		bodyBufs.Put(buf)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
	}
	return err == nil
}

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

func (a *API) handleClasses(w http.ResponseWriter, r *http.Request) {
	v, rej := a.svc.opClasses(r.PathValue("dc"))
	if rej != nil {
		writeError(w, rej.Status, rej.Message)
		return
	}
	resp := classesResponse{
		Datacenter:  v.snap.Datacenter,
		Generation:  v.snap.Generation,
		AsOfSeconds: v.snap.AsOf.Seconds(),
		Classes:     make([]classInfo, 0, len(v.snap.Clustering.Classes)),
	}
	for _, cls := range v.snap.Clustering.Classes {
		resp.Classes = append(resp.Classes, classInfoOf(v.rec(cls)))
	}
	writeJSON(w, http.StatusOK, resp)
}

type serverClassResponse struct {
	Datacenter string    `json:"datacenter"`
	Generation uint64    `json:"generation"`
	Server     int64     `json:"server"`
	Class      classInfo `json:"class"`
}

func (a *API) handleServerClass(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, "server id must be an integer")
		return
	}
	snap, rec, rej := a.svc.opServerClass(r.PathValue("dc"), id)
	if rej != nil {
		writeError(w, rej.Status, rej.Message)
		return
	}
	writeJSON(w, http.StatusOK, serverClassResponse{
		Datacenter: snap.Datacenter,
		Generation: snap.Generation,
		Server:     id,
		Class:      classInfoOf(rec),
	})
}

// telemetrySample is the wire form of one ingested observation. Exactly one
// of tenant / server must be present (pointers distinguish "absent" from the
// valid id 0); at_seconds is an offset on the telemetry clock and defaults
// to one slot after the subject's latest sample.
type telemetrySample struct {
	Tenant      *int64  `json:"tenant"`
	Server      *int64  `json:"server"`
	AtSeconds   float64 `json:"at_seconds"`
	Utilization float64 `json:"utilization"`
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

func (a *API) handleTelemetry(w http.ResponseWriter, r *http.Request) {
	if a.ingestLimiter != nil && !a.ingestLimiter.allow(a.sourceKeyFor(r), time.Now()) {
		writeError(w, http.StatusTooManyRequests, "ingest rate limit exceeded for this source")
		return
	}
	dc := r.PathValue("dc")
	var req telemetryRequest
	if !readBody(w, r, &req) {
		return
	}
	if len(req.Samples) == 0 {
		writeError(w, http.StatusBadRequest, "no samples")
		return
	}
	samples := make([]IngestSample, len(req.Samples))
	for i, s := range req.Samples {
		// Written so NaN fails too: both comparisons are false for NaN, so
		// only finite offsets inside the bound proceed to the conversion.
		if !(s.AtSeconds >= 0 && s.AtSeconds <= maxTelemetryOffsetSeconds) {
			// An absurd offset would corrupt the store's telemetry clock;
			// poison the sample (no subject) so Ingest counts it rejected.
			samples[i] = IngestSample{Tenant: -1, Server: -1}
			continue
		}
		samples[i] = IngestSample{
			Tenant: -1,
			Server: -1,
			At:     time.Duration(s.AtSeconds * float64(time.Second)),
			Value:  s.Utilization,
		}
		if s.Tenant != nil {
			samples[i].Tenant = tenant.ID(*s.Tenant)
		}
		if s.Server != nil {
			samples[i].Server = tenant.ServerID(*s.Server)
		}
	}
	res, err := a.svc.Ingest(dc, samples)
	if err != nil {
		rej := rejectionOf(err)
		writeError(w, rej.Status, rej.Message)
		return
	}
	writeJSON(w, http.StatusOK, telemetryResponse{
		Datacenter:     dc,
		Accepted:       res.Accepted,
		Rejected:       res.Rejected,
		HorizonSeconds: res.Horizon.Seconds(),
	})
}

// selectRequest is the JSON form of selectArgs. job_type is "short", "medium"
// or "long"; absent, the job is classified from last_run_seconds, and with
// that absent too it is medium (the first-guess rule).
type selectRequest struct {
	JobType            string  `json:"job_type"`
	LastRunSeconds     float64 `json:"last_run_seconds"`
	MaxConcurrentCores float64 `json:"max_concurrent_cores"`
	HoldSeconds        float64 `json:"hold_seconds"`
	DryRun             bool    `json:"dry_run"`
	// JobID and Owner ride on the lease through the ledger and surface on
	// GET /v1/{dc}/leases and /debug/traces, answering "whose lease is this"
	// without a side channel.
	JobID string `json:"job_id,omitempty"`
	Owner string `json:"owner,omitempty"`
}

// jobCodes maps job_type to its wire.Job* code; a name it lacks is rejected
// by the operation.
var jobCodes = map[string]uint8{
	"short":  wire.JobShort,
	"medium": wire.JobMedium,
	"long":   wire.JobLong,
	"":       wire.JobFromLastRun,
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

func (a *API) handleSelect(w http.ResponseWriter, r *http.Request) {
	var req selectRequest
	if !readBody(w, r, &req) {
		return
	}
	job, ok := jobCodes[req.JobType]
	if !ok {
		job = math.MaxUint8
	}
	st := stateOf(w)
	res, rej := a.svc.opSelect(&st.sc, r.PathValue("dc"), selectArgs{
		Job:            job,
		DryRun:         req.DryRun,
		MaxCores:       req.MaxConcurrentCores,
		LastRunSeconds: req.LastRunSeconds,
		HoldSeconds:    req.HoldSeconds,
		Meta:           ledger.Meta{JobID: req.JobID, Owner: req.Owner},
	}, st.tr)
	if rej != nil {
		writeError(w, rej.Status, rej.Message)
		return
	}
	resp := selectResponse{
		Datacenter:       res.At.Datacenter,
		Generation:       res.At.Generation,
		JobType:          res.JobType.String(),
		Satisfiable:      !res.Selection.Empty(),
		Classes:          make([]int, len(res.Selection.Classes)),
		Headrooms:        res.Selection.Headrooms,
		Lease:            res.Lease,
		Granted:          res.Granted,
		ExpiresInSeconds: secondsUntil(res.ExpiresAt),
	}
	for i, id := range res.Selection.Classes {
		resp.Classes[i] = int(id)
	}
	if resp.Headrooms == nil {
		resp.Headrooms = []float64{}
	}
	writeJSON(w, http.StatusOK, resp)
}

// grantsOf splits a lease's grants into the parallel class/cores columns the
// JSON dialect reports them as.
func grantsOf(lease ledger.Lease) (classes []int, cores []float64) {
	classes = make([]int, len(lease.Grants))
	cores = make([]float64, len(lease.Grants))
	for i, g := range lease.Grants {
		classes[i] = int(g.Class)
		cores[i] = ledger.CoresOf(g.Millis)
	}
	return classes, cores
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
	offset, limit := 0, 100
	if s := r.URL.Query().Get("offset"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 0 {
			writeError(w, http.StatusBadRequest, "offset must be a non-negative integer")
			return
		}
		offset = v
	}
	if s := r.URL.Query().Get("limit"); s != "" {
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
		classes, cores := grantsOf(ls)
		resp.Leases[i] = leaseInfo{
			Lease:            ls.ID,
			JobID:            ls.Meta.JobID,
			Owner:            ls.Meta.Owner,
			ExpiresInSeconds: secondsUntil(ls.ExpiresAt),
			TotalCores:       ledger.CoresOf(ls.TotalMillis()),
			Classes:          classes,
			Cores:            cores,
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

type renewResponse struct {
	Datacenter       string  `json:"datacenter"`
	Lease            uint64  `json:"lease"`
	TotalCores       float64 `json:"total_cores"`
	ExpiresInSeconds float64 `json:"expires_in_seconds,omitempty"`
}

func (a *API) handleRenew(w http.ResponseWriter, r *http.Request) {
	var req leaseRequest
	if !readBody(w, r, &req) {
		return
	}
	dc := r.PathValue("dc")
	lease, rej := a.svc.opRenew(&stateOf(w).sc, dc, req.Lease, req.HoldSeconds)
	if rej != nil {
		writeError(w, rej.Status, rej.Message)
		return
	}
	writeJSON(w, http.StatusOK, renewResponse{
		Datacenter:       dc,
		Lease:            lease.ID,
		TotalCores:       ledger.CoresOf(lease.TotalMillis()),
		ExpiresInSeconds: secondsUntil(lease.ExpiresAt),
	})
}

type releaseResponse struct {
	Datacenter    string    `json:"datacenter"`
	Lease         uint64    `json:"lease"`
	ReleasedCores float64   `json:"released_cores"`
	Classes       []int     `json:"classes"`
	Cores         []float64 `json:"cores"`
}

func (a *API) handleRelease(w http.ResponseWriter, r *http.Request) {
	var req leaseRequest
	if !readBody(w, r, &req) {
		return
	}
	dc := r.PathValue("dc")
	lease, rej := a.svc.opRelease(dc, req.Lease)
	if rej != nil {
		writeError(w, rej.Status, rej.Message)
		return
	}
	classes, cores := grantsOf(lease)
	writeJSON(w, http.StatusOK, releaseResponse{
		Datacenter:    dc,
		Lease:         lease.ID,
		ReleasedCores: ledger.CoresOf(lease.TotalMillis()),
		Classes:       classes,
		Cores:         cores,
	})
}

// placeRequest is the body of both place and blocks. Writer is the creating
// server (optional; -1 or absent means an external writer).
type placeRequest struct {
	Replication        int   `json:"replication"`
	Writer             int64 `json:"writer"`
	RelaxedEnvironment bool  `json:"relaxed_environment"`
}

// placeResponse answers both; Block is the ledger's id for a created block.
type placeResponse struct {
	Datacenter string  `json:"datacenter"`
	Generation uint64  `json:"generation"`
	Block      uint64  `json:"block,omitempty"`
	Replicas   []int64 `json:"replicas"`
}

// handlePlacement is the JSON codec of both placement operations.
func (a *API) handlePlacement(op func(sc *scratch, dc string, replication int, writer int64, relaxed bool) (BlockPlacement, *rejection)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		req := placeRequest{Writer: -1}
		if !readBody(w, r, &req) {
			return
		}
		dc := r.PathValue("dc")
		placed, rej := op(&stateOf(w).sc, dc, req.Replication, req.Writer, req.RelaxedEnvironment)
		if rej != nil {
			writeError(w, rej.Status, rej.Message)
			return
		}
		resp := placeResponse{
			Datacenter: dc,
			Generation: placed.Generation,
			Block:      placed.Block,
			Replicas:   make([]int64, len(placed.Replicas)),
		}
		for i, s := range placed.Replicas {
			resp.Replicas[i] = int64(s)
		}
		writeJSON(w, http.StatusOK, resp)
	}
}

// reimageRequest names the reimaged server; the pointer distinguishes an
// absent server from the valid id 0.
type reimageRequest struct {
	Server *int64 `json:"server"`
}

type reimageResponse struct {
	Datacenter string `json:"datacenter"`
	Server     int64  `json:"server"`
	// Lost is how many replicas this event hit; Pending is the DC's total
	// replica slots currently awaiting re-replication.
	Lost    int   `json:"lost"`
	Pending int64 `json:"pending"`
}

func (a *API) handleReimage(w http.ResponseWriter, r *http.Request) {
	var req reimageRequest
	if !readBody(w, r, &req) {
		return
	}
	if req.Server == nil {
		writeError(w, http.StatusBadRequest, "server is required")
		return
	}
	dc := r.PathValue("dc")
	lost, pending, rej := a.svc.opReimage(dc, *req.Server)
	if rej != nil {
		writeError(w, rej.Status, rej.Message)
		return
	}
	writeJSON(w, http.StatusOK, reimageResponse{Datacenter: dc, Server: *req.Server, Lost: lost, Pending: pending})
}

// promoteResponse reports a promotion attempt. Promoted is false when the
// node already is (or just became) primary — the call is idempotent, so a
// router retrying against a winner it already promoted gets a clean 200.
type promoteResponse struct {
	Promoted bool   `json:"promoted"`
	Role     string `json:"role"`
	NodeID   string `json:"node_id"`
}

// handlePromote turns a follower into a primary: it detaches from the
// replication stream, keeps the replicated ledger (lease conservation
// survives the handoff), and starts the refresh and sweep loops. The router
// POSTs this when a primary stops beating.
func (a *API) handlePromote(w http.ResponseWriter, r *http.Request) {
	promoted := a.svc.Promote()
	writeJSON(w, http.StatusOK, promoteResponse{
		Promoted: promoted,
		Role:     a.svc.Role(),
		NodeID:   a.svc.NodeID(),
	})
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
// the column it reads (see obs.Prom.Walk).
type endpointRow struct {
	obs.EndpointStats
	_ struct{} `prom:"harvestd_requests_total,counter,of=Requests" help:"Requests served, by endpoint and dialect."`
	_ struct{} `prom:"harvestd_request_errors_total,counter,of=Errors" help:"4xx/5xx responses, by endpoint and dialect."`
	_ struct{} `prom:"harvestd_request_latency_microseconds,histogram,of=Latency" help:"Request latency by endpoint and dialect, in microseconds."`
}

// metricsResponse is the daemon's /metrics: the JSON document as marshalled,
// and the Prometheus exposition as obs.Prom.Walk reads its tags. A metric is
// one tagged field, here or in a struct below; both renderings follow from
// it. Latencies are in microseconds — the histograms' native resolution — so
// the le bounds stay exact integers (see obs.BucketUpperMicros).
type metricsResponse struct {
	UptimeSeconds float64                `json:"uptime_seconds" prom:"harvestd_uptime_seconds,gauge" help:"Seconds since the daemon started."`
	TotalRequests uint64                 `json:"total_requests"`
	QPS           float64                `json:"qps"`
	Endpoints     map[string]endpointRow `json:"endpoints" labels:"endpoint,dialect=json"`
	Binary        *BinaryStats           `json:"binary,omitempty"`
	Replication   ReplicationStats       `json:"replication"`
	Datacenters   map[string]ShardStats  `json:"datacenters" labels:"dc"`
}

func (a *API) handleMetrics(w http.ResponseWriter, r *http.Request) {
	resp := metricsResponse{
		UptimeSeconds: time.Since(a.start).Seconds(),
		Endpoints:     make(map[string]endpointRow, len(a.endpoints)),
		Replication:   a.svc.ReplicationStats(),
		Datacenters:   make(map[string]ShardStats, len(a.svc.Datacenters())),
	}
	for name, m := range a.endpoints {
		row := endpointRow{EndpointStats: m.Stats()}
		resp.TotalRequests += row.Requests
		resp.Endpoints[name] = row
	}
	if a.binary != nil {
		bin := a.binary.Stats()
		bin.Addr = a.binaryAddr
		for _, row := range bin.Endpoints {
			resp.TotalRequests += row.Requests
		}
		resp.Binary = &bin
	}
	if resp.UptimeSeconds > 0 {
		resp.QPS = float64(resp.TotalRequests) / resp.UptimeSeconds
	}
	for _, dc := range a.svc.Datacenters() {
		if st, ok := a.svc.Stats(dc); ok {
			resp.Datacenters[dc] = st
		}
	}
	if r.URL.Query().Get("format") != "prometheus" {
		writeJSON(w, http.StatusOK, resp)
		return
	}
	var p obs.Prom
	p.Walk(resp)
	p.Metric("harvestd_replication_role", "gauge", "1 when this node is the primary, 0 when a follower.")
	role := uint64(0)
	if resp.Replication.Role == "primary" {
		role = 1
	}
	p.Uint("harvestd_replication_role", obs.Labels("node", resp.Replication.NodeID), role)
	p.Reply(w)
}
