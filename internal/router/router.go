// Package router is the multi-node sharding front end: a stateless HTTP
// proxy that owns a datacenter → backend routing table and forwards
// /v1/{dc}/... requests to the harvestd instance serving that datacenter.
// Shards (datacenters) are independent by construction — the paper's
// harvesting control plane is per-datacenter — so splitting them across
// processes needs no coordination beyond "who serves what": backends announce
// themselves with heartbeats carrying their datacenter set and per-DC
// snapshot generations — frames on the one connection their POST
// /v1/register upgraded — and the router serves /v1/datacenters as the union
// across live backends.
//
// Failure semantics are deliberately simple and observable:
//
//   - A backend that stops heartbeating is marked stale after StaleAfter;
//     requests for its datacenters get 503 with a Retry-After hint of one
//     beat until it re-registers (registration is idempotent, so recovery is
//     one beat).
//   - A backend whose transport fails (connection refused, timeout) trips a
//     per-backend circuit breaker after BreakerThreshold consecutive
//     failures: requests 503 immediately for one beat instead of each paying
//     a connect timeout, then one probe request is let through.
//   - Ownership is sticky per datacenter: while a DC's current owner keeps
//     heartbeating, another backend announcing the same DC does not take it
//     over (the route must not ping-pong mid-lease). The DC moves once the
//     owner drops it or goes stale, so a migration is "start the new owner,
//     stop the old one".
//
// The router holds no per-request state — leases, ledgers, and telemetry all
// live on the owning backend — so any number of router replicas can front
// the same backend set, provided each replica receives the backends'
// heartbeats (harvestd -announce takes the full comma-separated replica
// list).
package router

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"harvest/internal/clock"
	"harvest/internal/httpjson"
	"harvest/internal/obs"
	"harvest/internal/regproto"
	"harvest/internal/wire"
)

// rlog is the router's structured logger: component=router on every line.
var rlog = obs.NewLogger("router")

// Config parameterizes the router.
type Config struct {
	// StaleAfter marks a backend stale this long after its last heartbeat;
	// its datacenters then 503 until it re-registers. Zero means 10 seconds
	// (five beats at the announcer's 2-second default). The retry timings
	// derive from it: a 503's Retry-After hint and an open circuit's cooldown
	// are one beat (StaleAfter/5), and a datacenter's elected follower is
	// told to promote at most once per StaleAfter/2.
	StaleAfter time.Duration
	// BreakerThreshold is how many consecutive transport failures open a
	// backend's circuit. Zero means 3; negative disables the breaker.
	BreakerThreshold int
	// ProxyTimeout bounds one proxied round-trip. Zero means 15 seconds.
	ProxyTimeout time.Duration
	// RegisterToken, when non-empty, requires POST /v1/register callers to
	// present "Authorization: Bearer <token>"; everything else is 401. The
	// registration surface moves routing — without the token anyone who can
	// reach the router could hijack a datacenter's traffic.
	RegisterToken string
	// MaxGenLag is the read-spreading staleness gate: a follower whose
	// announced generation trails the primary's by more than this many
	// generations is skipped for reads until it catches up. Zero means 2;
	// negative pins all reads to the primary (spreading off).
	MaxGenLag int
	// Clock dates beats, breaker cooldowns and promotions. Nil means the wall
	// clock; a fleet test shares a stepped one with its nodes.
	Clock clock.Clock
}

// backend is one registered harvestd node. Identity, URL, and the datacenter
// map are guarded by the router's mutex (they only change on register);
// heartbeat and breaker state are atomics read on every proxied request.
type backend struct {
	id  string
	url string            // base URL, no trailing slash
	dcs map[string]uint64 // datacenter → announced generation (guarded by Router.mu)

	// binAddr is the backend's advertised binary frame listener (host:port),
	// empty for a JSON-only backend, which only the JSON front can reach.
	// Guarded by Router.mu like url.
	binAddr string

	// replicateAddr is the backend's announced replication listener (guarded
	// by Router.mu), which streams once the backend is primary. The register
	// acknowledgement hands the current owner's address back to its followers
	// so orphans re-dial the promoted node.
	replicateAddr string

	// draining is set by a backend's final heartbeat before a planned
	// shutdown: still alive, but asking not to be routed to. Atomic because
	// the proxy path reads it outside Router.mu.
	draining atomic.Bool

	// role and primaryID mirror the backend's announced replication role
	// (guarded by Router.mu like url): "primary" for a write-capable owner
	// ("" from pre-replication backends normalizes to it), "follower" for a
	// read-only replica of the backend named primaryID. Followers never claim
	// sticky datacenter ownership; they serve spread reads (replica.go).
	role      string
	primaryID string

	// Read fan-out accounting: inflight is the power-of-two-choices load
	// signal, reads counts requests this backend was picked for by read
	// classification, lat is the per-backend request latency across both
	// dialects (satellite of the replica work: per-replica histograms on
	// /metrics).
	inflight atomic.Int64
	reads    atomic.Uint64
	lat      obs.EndpointMetrics

	// The pipelined binary connections feeding native forwarding: each pipe
	// carries many in-flight frames keyed by relay id (binary.go). The table
	// is a fixed array of slots so that frames keyed by lease id always map
	// to the same pipe — the per-lease ordering guarantee (binary.go).
	// Guarded by binMu, never Router.mu — the pipes are touched on every
	// forwarded frame and must not contend with the routing table. Lock
	// order: Router.mu may be held when binMu is taken (register closes the
	// pipes), never the reverse.
	binMu    sync.Mutex
	binPipes [binPipeCount]*binPipe

	lastBeat    atomic.Int64 // unix nanos of the last register
	consecFails atomic.Int32 // consecutive proxy transport failures
	openUntil   atomic.Int64 // unix nanos; breaker open while now < openUntil, half-open once past it
	probing     atomic.Bool  // a half-open probe request is in flight

	proxied atomic.Uint64 // requests forwarded (any status)
	errors  atomic.Uint64 // transport-level proxy failures
}

// Router is the front end. It implements http.Handler.
type Router struct {
	cfg    Config
	mux    *http.ServeMux
	client *http.Client
	start  time.Time

	mu       sync.RWMutex
	backends map[string]*backend // by id
	table    map[string]route    // datacenter → owning backend

	registrations atomic.Uint64
	// reg holds the upgraded registration connections (serveRegisterConn),
	// so Close can end them: net/http forgets a connection once it is
	// hijacked.
	reg          wire.Server
	proxiedTotal atomic.Uint64
	proxyErrors  atomic.Uint64
	unavailable  atomic.Uint64 // 503s rejected without touching a backend (stale / circuit open / probe held)

	// Promotion state (replica.go): when each datacenter's winner was last
	// told (guarded by mu), and how many beats told one.
	lastPromote map[string]time.Time
	promotions  atomic.Uint64

	// Binary front-end state (see binary.go). binAdvertise is set once before
	// serving and published on /v1/datacenters so binary-capable clients can
	// discover the frame listener from the JSON control plane.
	binAdvertise string
	// bin is the front's accept loop and connection set (wire.Server's
	// contract); serveBinaryConn is its handler.
	bin wire.Server

	binFramingErrors atomic.Uint64
	binForwarded     atomic.Uint64 // frames relayed natively to a binary backend
	binRejected      atomic.Uint64 // error frames originated by the router itself

	// binOps is the per-opcode request/error/latency breakdown of the binary
	// front end (the counters above say how much; these say how fast),
	// indexed by wire.OpIndex.
	binOps [len(wire.Ops)]obs.EndpointMetrics

	// scrapes keeps the *metricsResponse values /metrics refills in place.
	scrapes sync.Pool

	// binRelayID mints the unique ids frames travel under on the backend leg
	// of native forwarding; responses are matched back to their waiters by
	// this id and re-stamped with the client's own before relay.
	binRelayID atomic.Uint64

	// rec is the per-process trace recorder behind GET /debug/traces: every
	// proxied request and relayed frame records its ingress/breaker/backend
	// spans here under the trace id it carried (or was assigned).
	rec *obs.Recorder
}

// route is a datacenter's entry in the routing table: the backend that owns
// it, and the datacenter's name as a string of the table's own — what a frame
// front resolves a payload's name bytes to without allocating (dcName).
type route struct {
	name  string
	owner *backend
}

// dcName turns a datacenter name from a frame payload into a string without
// allocating: the routing table's own. Only a name with no owner is copied.
func (rt *Router) dcName(b []byte) string {
	rt.mu.RLock()
	r, ok := rt.table[string(b)]
	rt.mu.RUnlock()
	if ok {
		return r.name
	}
	return string(b)
}

// Recorder exposes the router's trace recorder for the debug listener and
// tests.
func (rt *Router) Recorder() *obs.Recorder { return rt.rec }

// New builds a router with no backends; they arrive via /v1/register.
func New(cfg Config) *Router {
	if cfg.StaleAfter <= 0 {
		cfg.StaleAfter = 10 * time.Second
	}
	if cfg.BreakerThreshold == 0 {
		cfg.BreakerThreshold = 3
	}
	if cfg.ProxyTimeout <= 0 {
		cfg.ProxyTimeout = 15 * time.Second
	}
	if cfg.MaxGenLag == 0 {
		cfg.MaxGenLag = 2
	}
	cfg.Clock = clock.Or(cfg.Clock)
	r := &Router{
		cfg:   cfg,
		mux:   http.NewServeMux(),
		start: time.Now(),
		client: &http.Client{
			Timeout: cfg.ProxyTimeout,
			// A reverse proxy relays 3xx verbatim; following them would
			// re-issue proxied POSTs as GETs of arbitrary Location targets.
			CheckRedirect: func(req *http.Request, via []*http.Request) error {
				return http.ErrUseLastResponse
			},
			// Keep-alive connection reuse per backend is where the proxy's
			// throughput comes from: idle conns stay pooled well past the
			// announce cadence.
			// IdleConnTimeout stays well below harvestd's server-side
			// IdleTimeout (2 minutes): the router must drop an idle conn
			// before the backend does, or a reuse racing the backend's close
			// shows up as a spurious transport failure.
			Transport: &http.Transport{
				MaxIdleConns:        512,
				MaxIdleConnsPerHost: 128,
				IdleConnTimeout:     30 * time.Second,
			},
		},
		backends:    make(map[string]*backend),
		table:       make(map[string]route),
		lastPromote: make(map[string]time.Time),
		rec:         obs.NewRecorder(obs.DefaultRingTraces),
	}
	r.mux.HandleFunc("POST /v1/register", r.handleRegister)
	r.mux.HandleFunc("GET /v1/datacenters", r.handleDatacenters)
	r.mux.HandleFunc("GET /healthz", r.handleHealthz)
	r.mux.HandleFunc("GET /metrics", r.handleMetrics)
	r.mux.HandleFunc("/v1/{dc}/{rest...}", r.handleProxy)
	return r
}

// beatInterval is StaleAfter/5, one beat at the announcer's default interval
// and the default window: the Retry-After hint on a 503 — the soonest a
// recovered backend could have re-registered — and how long an opened circuit
// rejects requests.
func (rt *Router) beatInterval() time.Duration { return rt.cfg.StaleAfter / 5 }

// ServeHTTP implements http.Handler.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) { rt.mux.ServeHTTP(w, r) }

// writeJSON and writeError are the serving tier's shared response
// convention (internal/httpjson): explicit Content-Length, never chunked,
// identical shape to the backends' responses for pipelined clients.
func writeJSON(w http.ResponseWriter, status int, v any) { httpjson.Write(w, status, v) }

func writeError(w http.ResponseWriter, status int, msg string) {
	httpjson.WriteError(w, status, msg)
}

// writeUnavailable is the single shape of every "shard exists but cannot be
// served right now" response: 503 plus the Retry-After clients should honor.
// Callers rejecting without a backend attempt count rt.unavailable
// themselves; transport-failure paths are already counted as proxy errors.
func (rt *Router) writeUnavailable(w http.ResponseWriter, retryAfter time.Duration, msg string) {
	secs := int(retryAfter / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeError(w, http.StatusServiceUnavailable, msg)
}

// maxProxyBody bounds a proxied request body: the backends cap their own
// POST bodies at 1 MiB, so anything larger is rejected here without ever
// reaching a shard.
const maxProxyBody = 2 << 20

// maxProxyResponse bounds the response re-buffer. Real backend responses
// top out in the tens of kilobytes (/metrics with every DC); the cap exists
// so a misbehaving — or maliciously registered — backend streaming an
// unbounded body cannot balloon the router's memory per in-flight request.
const maxProxyResponse = 8 << 20

// handleRegister upgrades the connection to carry every beat as a frame
// (serveRegisterConn), under the token checked once for the connection's
// life. A request that does not ask to upgrade is refused with 426.
func (rt *Router) handleRegister(w http.ResponseWriter, r *http.Request) {
	if !httpjson.BearerAuthorized(r, rt.cfg.RegisterToken) {
		writeError(w, http.StatusUnauthorized, "missing or invalid register token")
		return
	}
	if !regproto.IsUpgrade(r) {
		w.Header().Set("Upgrade", regproto.UpgradeToken)
		writeError(w, http.StatusUpgradeRequired, "registration beats are frames: upgrade the connection to "+regproto.UpgradeToken)
		return
	}
	c, err := regproto.Accept(w)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "registration upgrade failed: "+err.Error())
		return
	}
	rt.reg.Handle(c.NetConn(), func(net.Conn) { rt.serveRegisterConn(c) })
}

// serveRegisterConn answers the beats of one upgraded registration
// connection until it closes, goes silent past the age-out horizon, or breaks
// the protocol. The beat decodes into storage reused across beats, and its
// URL — whose parse is the one step of validation that allocates — is parsed
// only when it differs from the one last accepted here, so a steady node's
// beat costs the router no heap object.
func (rt *Router) serveRegisterConn(c *regproto.Conn) {
	var req regproto.RegisterRequest
	var ack regproto.RegisterResponse
	checkedURL := ""
	for {
		id, err := c.ReadBeat(&req, rt.ageOut())
		if err != nil {
			return
		}
		if err = rt.register(&req, checkedURL, &ack); err != nil {
			err = c.Refuse(id, http.StatusBadRequest, err.Error())
		} else {
			checkedURL = req.URL
			err = c.Ack(id, &ack)
		}
		if err != nil {
			return
		}
	}
}

// register validates one beat and applies it to the routing table, filling
// in its acknowledgement; an error is the reason to refuse it. The URL parse
// is skipped when req.URL equals checkedURL, a non-empty one this caller saw
// accepted.
func (rt *Router) register(req *regproto.RegisterRequest, checkedURL string, ack *regproto.RegisterResponse) error {
	if req.ID == "" {
		return errors.New("register requires a backend id")
	}
	if checkedURL == "" || req.URL != checkedURL {
		u, err := url.Parse(req.URL)
		if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return errors.New("register url must be an absolute http(s) URL")
		}
		// The URL is a base the proxy appends "/v1/..." to: a path, query, or
		// fragment would corrupt every proxied target while the backend looked
		// perfectly healthy in /metrics — reject it at the source.
		if (u.Path != "" && u.Path != "/") || u.RawQuery != "" || u.Fragment != "" {
			return errors.New("register url must be a bare base URL (no path, query, or fragment)")
		}
	}
	if req.BinaryAddr != "" {
		if _, _, err := net.SplitHostPort(req.BinaryAddr); err != nil {
			return errors.New("register binary_addr must be host:port: " + err.Error())
		}
	}
	if req.ReplicateAddr != "" {
		if _, _, err := net.SplitHostPort(req.ReplicateAddr); err != nil {
			return errors.New("register replicate_addr must be host:port: " + err.Error())
		}
	}
	if len(req.Datacenters) == 0 {
		return errors.New("register requires at least one datacenter")
	}
	for _, dc := range req.Datacenters {
		if dc.DC == "" {
			return errors.New("register datacenter with empty name")
		}
	}
	role := req.Role
	switch role {
	case "":
		// Pre-replication backends announce no role; they are write-capable.
		role = "primary"
	case "primary", "follower":
	default:
		return errors.New("register role must be primary or follower")
	}
	baseURL := strings.TrimRight(req.URL, "/")

	rt.mu.Lock()
	now := rt.cfg.Clock.Now()
	// Age out gone backends, or node IDs changed by restarts pile up.
	for _, old := range rt.backends {
		if rt.gone(old, now) {
			rt.dropBackend(old)
		}
	}
	b := rt.backends[req.ID]
	if b == nil {
		b = &backend{id: req.ID}
		rt.backends[req.ID] = b
		rlog.Info("backend registered", "backend", req.ID, "url", baseURL, "datacenters", len(req.Datacenters))
	} else if b.url != baseURL {
		// A URL change under an existing ID is either a legitimate restart on
		// a new address or two nodes sharing one -node-id — the latter flaps
		// the route at heartbeat cadence and strands leases, so make every
		// flip visible.
		rlog.Warn("backend changed URL (two nodes sharing one -node-id would flap here every beat)",
			"backend", req.ID, "from", b.url, "to", baseURL)
	}
	b.url = baseURL
	wasFollower := b.role == "follower"
	b.role = role
	b.primaryID = req.PrimaryID
	b.replicateAddr = req.ReplicateAddr
	if req.Draining && !b.draining.Load() {
		rlog.Info("backend draining (planned shutdown)", "backend", b.id)
	}
	b.draining.Store(req.Draining)
	if b.binAddr != req.BinaryAddr {
		if b.binAddr != "" {
			// The old listener's pooled conns point at an address the backend
			// no longer serves (restart on a new port, or the capability was
			// turned off); reusing them would forward frames into the void.
			rlog.Info("backend binary listener changed, dropping pooled conns",
				"backend", b.id, "from", b.binAddr, "to", req.BinaryAddr)
		}
		b.binAddr = req.BinaryAddr
		b.closeBinPipes()
	}
	if announcesSame(b.dcs, req.Datacenters) {
		// The steady beat: only generations move, in place.
		for _, dc := range req.Datacenters {
			b.dcs[dc.DC] = dc.Generation
		}
	} else {
		next := make(map[string]uint64, len(req.Datacenters))
		for _, dc := range req.Datacenters {
			next[dc.DC] = dc.Generation
		}
		// Drop routing entries for datacenters this backend no longer announces.
		for name := range b.dcs {
			if _, still := next[name]; !still {
				if rt.table[name].owner == b {
					delete(rt.table, name)
					rlog.Info("backend dropped datacenter", "backend", b.id, "dc", name)
				}
			}
		}
		b.dcs = next
	}
	// The beat is stored before the lock is released: the table entry must
	// never be observable with a zero lastBeat, or a proxy request racing
	// the very first registration would 503 it as stale. The breaker is
	// deliberately NOT reset by a heartbeat — beats prove the backend can
	// reach the router, not that the router can reach the backend (think a
	// typo'd -advertise URL or an asymmetric firewall), so only a successful
	// data-plane probe closes an open circuit.
	b.lastBeat.Store(now.UnixNano())
	*ack = regproto.RegisterResponse{}
	if role == "follower" {
		// Followers never claim: their books replicate someone else's, so
		// routing a write to one gets a retryable 503, not a lease. A follower
		// learns where its datacenters' current primary listens for
		// replication — after a promotion, the *promoted* node's listener,
		// which orphans re-dial — or, when that primary stopped beating,
		// whether it is the one to replace it.
		for _, dc := range req.Datacenters {
			owner := rt.table[dc.DC].owner
			if owner != nil && owner != b && owner.replicateAddr != "" && rt.routable(owner, now) {
				ack.PrimaryReplicateAddr = owner.replicateAddr
				break
			}
		}
		ack.Promote = rt.promoteWinner(b, now)
	} else {
		// Ownership is sticky while the owner is alive: two nodes announcing
		// the same datacenter must not ping-pong the route at heartbeat
		// cadence — that would strand leases on the shard that issued them. A
		// datacenter moves only when its current owner dropped it, went stale,
		// or demoted itself to follower, so a migration is "start the new
		// owner, stop the old one" and the handover happens at the staleness
		// deadline — and a promoted follower takes the routes on its first
		// beat as primary, which is where the promotion is counted.
		promoted := false
		for _, dc := range req.Datacenters {
			if prev := rt.table[dc.DC].owner; prev != nil && prev != b {
				if rt.alive(prev, now) && prev.role != "follower" && !prev.draining.Load() {
					continue
				}
				rlog.Info("datacenter moved to announcing primary", "dc", dc.DC, "from", prev.id, "to", b.id)
				promoted = promoted || wasFollower
			}
			rt.table[dc.DC] = route{name: dc.DC, owner: b}
		}
		if promoted {
			rt.promotions.Add(1)
		}
	}
	rt.mu.Unlock()
	rt.registrations.Add(1)
	return nil
}

// announcesSame reports whether dcs names exactly the datacenters have holds,
// each once: then a beat only moves generations.
func announcesSame(have map[string]uint64, dcs []wire.ReplDCGen) bool {
	if len(dcs) != len(have) {
		return false
	}
	for i, dc := range dcs {
		if _, ok := have[dc.DC]; !ok {
			return false
		}
		for _, prev := range dcs[:i] {
			if prev.DC == dc.DC {
				return false
			}
		}
	}
	return true
}

// Close ends every upgraded registration connection and waits for their
// handlers; the nodes behind them re-dial on their next beat. Serving the
// JSON front is the caller's http.Server's to stop.
func (rt *Router) Close() { rt.reg.Close() }

// ageOut is how long a backend may go without a beat before the router
// forgets it, and its datacenters fall back to 404 rather than 503ing forever:
// ten staleness windows, far past any outage 503+Retry-After should bridge.
func (rt *Router) ageOut() time.Duration { return 10 * rt.cfg.StaleAfter }

func (rt *Router) gone(b *backend, now time.Time) bool {
	return now.UnixNano()-b.lastBeat.Load() >= int64(rt.ageOut())
}

// alive reports whether the backend has heartbeated within StaleAfter.
func (rt *Router) alive(b *backend, now time.Time) bool {
	return now.UnixNano()-b.lastBeat.Load() <= int64(rt.cfg.StaleAfter)
}

// routable reports whether requests may be sent to the backend: alive and not
// draining. A draining backend is still beating — its shutdown is planned —
// but asked to be taken out of rotation immediately rather than waiting out
// the staleness window.
func (rt *Router) routable(b *backend, now time.Time) bool {
	return rt.alive(b, now) && !b.draining.Load()
}

// dropBackend forgets a backend gone for many staleness windows, with its
// routing entries and pooled binary pipes. The caller holds rt.mu.
func (rt *Router) dropBackend(b *backend) {
	for name, r := range rt.table {
		if r.owner == b {
			delete(rt.table, name)
		}
	}
	delete(rt.backends, b.id)
	b.closeBinPipes()
	rlog.Info("backend aged out without a heartbeat", "backend", b.id, "after", rt.ageOut())
}

// hopByHopHeaders are stripped when forwarding in either direction (RFC 9110
// §7.6.1); everything else — Content-Type, Authorization for the ingest
// token, etc. — passes through untouched.
var hopByHopHeaders = []string{
	"Connection", "Keep-Alive", "Proxy-Authenticate", "Proxy-Authorization",
	"Te", "Trailer", "Transfer-Encoding", "Upgrade",
}

// hopHeader marks a request as already router-forwarded. The topology is a
// single routing tier by design, so any proxied request arriving back at a
// router is a cycle — a backend registered with a router's own URL
// (copy-pasted -advertise, or a malicious open registration) — and must be
// broken at one hop instead of amplifying into a self-proxying storm.
const hopHeader = "X-Harvest-Router-Hop"

func (rt *Router) handleProxy(w http.ResponseWriter, r *http.Request) {
	if r.Header.Get(hopHeader) != "" {
		// Not counted in unavailable_503s: that metric means stale/breaker
		// rejections, and a loop is a misconfiguration with its own status.
		writeError(w, http.StatusLoopDetected,
			"routing loop: this backend resolves to a router (check its advertised URL)")
		return
	}
	dc := r.PathValue("dc")
	// Trace ingress: adopt the client's trace id (header) or assign one, echo
	// it to the client up front (headers set before WriteHeader apply to every
	// response path below), and publish the trace whichever way the request
	// resolves. The status is captured by a thin writer wrapper.
	upstreamID, _ := obs.ParseTraceID(r.Header.Get(obs.TraceHeader))
	tr := rt.rec.Begin(upstreamID, obs.DialectJSON, r.PathValue("rest"), dc)
	sc := &statusCapture{ResponseWriter: w, status: http.StatusOK}
	w = sc
	if tr != nil {
		w.Header().Set(obs.TraceHeader, obs.FormatTraceID(tr.ID))
		defer func() { tr.Finish(sc.status) }()
	}
	// The inbound body is buffered before backend resolution: read/write
	// classification needs it (an advisory select is only a read when its
	// body says dry_run), and a client that stalls mid-body must never sit on
	// the half-open probe slot claimed below. Handing NewRequest a
	// *bytes.Reader bounds memory, pins an explicit outbound Content-Length,
	// and lets the transport silently replay *idempotent* requests that race
	// a backend's idle-connection close. POSTs are not replayable in net/http
	// regardless of GetBody — deliberately left that way here, since
	// re-sending a select the backend may have processed could
	// double-reserve; the idle-close race is instead minimized by the
	// transport's IdleConnTimeout sitting well below the backends' server
	// IdleTimeout. Bodies here are small JSON (the backend caps its own at
	// 1 MiB).
	var bodyBytes []byte
	if r.Body != nil && r.ContentLength != 0 {
		var rerr error
		bodyBytes, rerr = io.ReadAll(http.MaxBytesReader(w, r.Body, maxProxyBody))
		if rerr != nil {
			// The client's fault (or the client went away) — not backend
			// evidence.
			writeError(w, http.StatusBadRequest, "unreadable request body: "+rerr.Error())
			return
		}
	}

	adm, ref := rt.admit(dc, isReadRequest(r.Method, r.PathValue("rest"), bodyBytes), false, tr)
	if adm.b != nil {
		// Name the replica that serves this request: load generators and
		// TestFailoverChainThroughTheRouter attribute read share from it.
		w.Header().Set(backendHeader, adm.b.id)
	}
	if ref != nil {
		if ref.status == http.StatusServiceUnavailable {
			rt.writeUnavailable(w, ref.retryAfter, ref.msg)
		} else {
			writeError(w, ref.status, ref.msg)
		}
		return
	}
	b := adm.b

	// The outbound path is the *escaped* original, verbatim: PathValue
	// returns percent-decoded segments, and re-joining those would let an
	// encoded '?', '#', or '/' inside a segment change which resource the
	// backend sees.
	target := adm.url + r.URL.EscapedPath()
	if r.URL.RawQuery != "" {
		target += "?" + r.URL.RawQuery
	}
	// clientGone recognizes transport errors caused by the *client* aborting
	// mid-request (the outbound context is the inbound request's): those say
	// nothing about the backend and must not feed the breaker.
	clientGone := func() bool {
		if r.Context().Err() == nil {
			return false
		}
		adm.cancel()
		return true
	}

	var outBody io.Reader = http.NoBody
	if len(bodyBytes) > 0 {
		outBody = bytes.NewReader(bodyBytes)
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, target, outBody)
	if err != nil {
		adm.cancel()
		writeError(w, http.StatusBadRequest, "bad proxy request: "+err.Error())
		return
	}
	req.Header = r.Header.Clone()
	for _, h := range hopByHopHeaders {
		req.Header.Del(h)
	}
	req.Header.Set("X-Forwarded-For", r.RemoteAddr)
	req.Header.Set(hopHeader, "1")
	var legStart time.Time
	if tr != nil {
		// The backend sees the router's trace id so the two tiers' /debug/traces
		// entries join on one value end to end.
		req.Header.Set(obs.TraceHeader, obs.FormatTraceID(tr.ID))
		legStart = time.Now()
	}

	// backendStart is unconditional (legStart above is trace-gated): it feeds
	// the per-backend latency histogram on every outcome except a vanished
	// client. inflight brackets the whole backend leg — it is the
	// power-of-two-choices load signal the read picker compares.
	backendStart := time.Now()
	b.inflight.Add(1)
	resp, err := rt.client.Do(req)
	if err != nil {
		b.inflight.Add(-1)
		if clientGone() {
			return // nobody is listening for this response
		}
		rt.writeUnavailable(w, rt.beatInterval(), rt.legFailed(adm, dc, backendStart, "unreachable"))
		return
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxProxyResponse+1))
	b.inflight.Add(-1)
	if err != nil || len(body) > maxProxyResponse {
		if err != nil && clientGone() {
			return
		}
		rt.writeUnavailable(w, rt.beatInterval(),
			rt.legFailed(adm, dc, backendStart, "sent a truncated or oversized response"))
		return
	}
	b.lat.Observe(time.Since(backendStart), resp.StatusCode)
	rt.settle(adm, true)
	tr.Span("backend_leg", legStart)
	b.proxied.Add(1)
	rt.proxiedTotal.Add(1)

	hdr := w.Header()
	for k, vs := range resp.Header {
		if k == "Content-Length" || isHopByHop(k) {
			continue
		}
		hdr[k] = vs
	}
	// Re-buffered with an explicit length: the response reaches the client in
	// one write, never chunked, keeping pipelined clients trivial to parse
	// against — same contract as the backends themselves.
	hdr.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(resp.StatusCode)
	w.Write(body)
}

// statusCapture remembers the status code a handler wrote so the deferred
// trace Finish can publish it. Write without WriteHeader keeps the 200
// default, matching net/http.
type statusCapture struct {
	http.ResponseWriter
	status int
}

func (s *statusCapture) WriteHeader(code int) {
	s.status = code
	s.ResponseWriter.WriteHeader(code)
}

func isHopByHop(k string) bool {
	for _, h := range hopByHopHeaders {
		if strings.EqualFold(k, h) {
			return true
		}
	}
	return false
}

// admission is a request's pass through admit to one backend.
type admission struct {
	b *backend
	// url and binAddr are copied under Router.mu: registration beats rewrite
	// them under the write lock, so they must not be read off b afterwards.
	url, binAddr string
	// probe marks the half-open circuit's one probe; settle or cancel gives
	// the slot back.
	probe bool
}

// refusal is why admit turned a request away. retryAfter is the hint a 503
// carries on the JSON front.
type refusal struct {
	status     int
	msg        string
	retryAfter time.Duration
}

// admit is the gate both fronts put every request through before touching a
// backend: resolve the datacenter (spreading reads — binary ones only to
// followers with a binary listener), then refuse when the backend missed its
// heartbeats, is draining, or its circuit is open. The returned admission
// names the backend even when refused, as far as one was resolved. An
// admitted request must end in exactly one settle or cancel.
func (rt *Router) admit(dc string, read, binary bool, tr *obs.Trace) (admission, *refusal) {
	now := rt.cfg.Clock.Now()
	b := rt.pickBackend(dc, read, binary, now)
	if b == nil {
		return admission{}, &refusal{status: http.StatusNotFound, msg: "unknown datacenter " + strconv.Quote(dc)}
	}
	adm := admission{b: b}
	unavailable := func(retryAfter time.Duration, why string) (admission, *refusal) {
		rt.unavailable.Add(1)
		return adm, &refusal{
			status:     http.StatusServiceUnavailable,
			msg:        unavailableMsg(dc, b, why),
			retryAfter: retryAfter,
		}
	}
	if !rt.alive(b, now) {
		// Collected here too: no backend may be left to beat into register.
		if rt.gone(b, now) {
			// Re-checked under the write lock so a racing re-registration wins.
			rt.mu.Lock()
			if rt.gone(b, now) && rt.backends[b.id] == b {
				rt.dropBackend(b)
			}
			rt.mu.Unlock()
			return adm, &refusal{status: http.StatusNotFound, msg: "unknown datacenter " + strconv.Quote(dc)}
		}
		return unavailable(rt.beatInterval(), "missed heartbeats")
	}
	if b.draining.Load() {
		// pickBackend already spread reads around a draining node, and its
		// followers' beats elect a replacement for writes; reaching here means
		// it was the only candidate. Its listeners are about to close, so
		// reject with the usual retry hint instead of racing the teardown.
		return unavailable(rt.beatInterval(), "draining for planned shutdown")
	}
	// Breaker gate. A nonzero openUntil in the past means the cooldown just
	// elapsed: the circuit is half-open, and exactly one request — the CAS
	// winner — may probe the backend; everyone else keeps getting 503 until
	// the probe's outcome decides the state. The slot is held only across
	// the backend leg, which ProxyTimeout bounds.
	gateStart := time.Now()
	if openUntil := b.openUntil.Load(); openUntil != 0 {
		if openUntil > now.UnixNano() {
			return unavailable(time.Duration(openUntil-now.UnixNano()), "circuit open")
		}
		if !b.probing.CompareAndSwap(false, true) {
			return unavailable(rt.beatInterval(), "probe in flight")
		}
		adm.probe = true
	}
	tr.Span("breaker_wait", gateStart)
	rt.mu.RLock()
	adm.url, adm.binAddr = b.url, b.binAddr
	rt.mu.RUnlock()
	if read {
		b.reads.Add(1)
	}
	return adm, nil
}

// settle records an admitted request's transport outcome and releases the
// probe slot. Any success — probe or a request that was already in flight
// when the circuit opened — fully closes the circuit (fresh evidence the data
// plane works); keying the close on the probe alone could strand the breaker
// half-open when a racing success reset consecFails just before a probe
// failed. A failure feeds proxyFailed, which re-opens at the threshold.
func (rt *Router) settle(adm admission, ok bool) {
	if ok {
		adm.b.consecFails.Store(0)
		adm.b.openUntil.Store(0)
	} else {
		rt.proxyFailed(adm.b)
	}
	adm.cancel()
}

// legFailed records a backend leg the transport let down — breaker evidence —
// and words the 503 for it.
func (rt *Router) legFailed(adm admission, dc string, legStart time.Time, why string) string {
	adm.b.lat.Observe(time.Since(legStart), http.StatusServiceUnavailable)
	rt.settle(adm, false)
	return unavailableMsg(dc, adm.b, why)
}

func unavailableMsg(dc string, b *backend, why string) string {
	return "datacenter " + strconv.Quote(dc) + " unavailable: backend " + b.id + " " + why
}

// cancel releases the probe slot without recording evidence: what went wrong
// was the client's doing and says nothing about the backend.
func (adm admission) cancel() {
	if adm.probe {
		adm.b.probing.Store(false)
	}
}

// proxyFailed records a transport failure and opens the breaker at the
// threshold. Application-level statuses (4xx/5xx from a healthy backend) are
// not failures — only an unreachable or misbehaving transport is. The
// cooldown is anchored at the failure's observation time (a fresh now), not
// at the request's start — a timeout failure must still buy a full closed
// window, or the circuit would be born already half-open.
func (rt *Router) proxyFailed(b *backend) {
	b.errors.Add(1)
	rt.proxyErrors.Add(1)
	if rt.cfg.BreakerThreshold < 0 {
		return
	}
	if int(b.consecFails.Add(1)) >= rt.cfg.BreakerThreshold {
		b.openUntil.Store(rt.cfg.Clock.Now().Add(rt.beatInterval()).UnixNano())
		// Leave consecFails at the threshold: the post-cooldown probe either
		// resets it on success or immediately re-opens on failure.
		rlog.Warn("backend circuit opened", "backend", b.id, "cooldown", rt.beatInterval())
	}
}

type datacentersResponse struct {
	Datacenters []string `json:"datacenters"`
	// BinaryAddr is the router's own binary frame listener, present when one
	// is serving: clients that speak the binary dialect discover it here and
	// keep using JSON for everything else.
	BinaryAddr string `json:"binary_addr,omitempty"`
}

// liveDatacenters returns the sorted union of datacenters across backends
// that are currently heartbeating. Followers count: while a primary is down
// its alive followers still serve the read surface (and one of them is
// promoted on its next beat), so the datacenter must stay discoverable — a
// client arriving mid-failover would otherwise see an empty fleet.
func (rt *Router) liveDatacenters(now time.Time) []string {
	rt.mu.RLock()
	seen := make(map[string]struct{}, len(rt.table))
	for name, r := range rt.table {
		if rt.routable(r.owner, now) {
			seen[name] = struct{}{}
		}
	}
	for _, b := range rt.backends {
		if b.role != "follower" || !rt.routable(b, now) {
			continue
		}
		for name := range b.dcs {
			seen[name] = struct{}{}
		}
	}
	names := make([]string, 0, len(seen))
	for name := range seen {
		names = append(names, name)
	}
	rt.mu.RUnlock()
	sort.Strings(names)
	return names
}

func (rt *Router) handleDatacenters(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, datacentersResponse{
		Datacenters: rt.liveDatacenters(rt.cfg.Clock.Now()),
		BinaryAddr:  rt.binAdvertise,
	})
}

type healthzResponse struct {
	Status      string `json:"status"`
	Backends    int    `json:"backends"`
	Alive       int    `json:"alive"`
	Datacenters int    `json:"datacenters"`
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	now := rt.cfg.Clock.Now()
	rt.mu.RLock()
	backends := len(rt.backends)
	alive := 0
	for _, b := range rt.backends {
		if rt.alive(b, now) {
			alive++
		}
	}
	rt.mu.RUnlock()
	writeJSON(w, http.StatusOK, healthzResponse{
		Status:      "ok",
		Backends:    backends,
		Alive:       alive,
		Datacenters: len(rt.liveDatacenters(now)),
	})
}

// BackendStats is one backend's row in /metrics, in both expositions (see
// obs.WriteMetrics for the tags).
type BackendStats struct {
	URL           string `json:"url"`
	BinaryAddr    string `json:"binary_addr,omitempty"`
	ReplicateAddr string `json:"replicate_addr,omitempty"`
	Role          string `json:"role"`
	// Primary is Role as a number: anything but "follower".
	Primary             bool              `json:"-" prom:"harvestrouter_backend_role,gauge" help:"1 when the backend announces itself primary, 0 for a follower."`
	PrimaryID           string            `json:"primary_id,omitempty"`
	Alive               bool              `json:"alive" prom:"harvestrouter_backend_up,gauge" help:"1 when the backend's heartbeats are fresh."`
	Draining            bool              `json:"draining,omitempty"`
	LastBeatAgeSeconds  float64           `json:"last_beat_age_seconds" prom:"harvestrouter_backend_last_beat_age_seconds,gauge" help:"Seconds since the backend's last register."`
	Datacenters         map[string]uint64 `json:"datacenters"` // name → announced generation
	Proxied             uint64            `json:"proxied" prom:"harvestrouter_backend_proxied_total,counter" help:"Requests proxied to this backend."`
	Reads               uint64            `json:"reads" prom:"harvestrouter_backend_reads_total,counter" help:"Requests the read spreader picked this backend for."`
	InFlight            int64             `json:"in_flight" prom:"harvestrouter_backend_in_flight,gauge" help:"Requests currently in flight against this backend."`
	Errors              uint64            `json:"errors" prom:"harvestrouter_backend_errors_total,counter" help:"Transport failures against this backend."`
	CircuitOpen         bool              `json:"circuit_open" prom:"harvestrouter_backend_circuit_open,gauge" help:"1 while the backend's breaker is open."`
	ConsecutiveFailures int               `json:"consecutive_failures"`
	// Latency is this backend's request latency as observed from the router,
	// across both dialects — per-replica histograms for spotting a slow
	// follower dragging the spread read path.
	Latency backendLatency `json:"latency"`
}

// backendLatency and opRow are the fleet's shared /metrics row under the
// router's two sets of family names (see obs.WriteMetrics on blank fields).
type backendLatency struct {
	obs.EndpointStats
	_ struct{} `prom:"harvestrouter_backend_latency_microseconds,histogram,of=Latency" help:"Backend request latency as observed from the router, in microseconds."`
}

type opRow struct {
	obs.EndpointStats
	_ struct{} `prom:"harvestrouter_binary_op_requests_total,counter,of=Requests" help:"Frames dispatched, by opcode."`
	_ struct{} `prom:"harvestrouter_binary_op_errors_total,counter,of=Errors" help:"Non-2xx outcomes, by opcode."`
	_ struct{} `prom:"harvestrouter_binary_op_latency_microseconds,histogram,of=Latency" help:"Frame relay latency by opcode, in microseconds."`
}

// RouterStats is the router's own section of /metrics.
type RouterStats struct {
	Registrations uint64                  `json:"registrations" prom:"harvestrouter_registrations_total,counter" help:"Register heartbeats accepted."`
	RegisterConns int64                   `json:"register_conns" prom:"harvestrouter_register_conns,gauge" help:"Upgraded registration connections open: backends beating in frames."`
	Proxied       uint64                  `json:"proxied" prom:"harvestrouter_proxied_total,counter" help:"Requests proxied to a backend (both dialects)."`
	ProxyErrors   uint64                  `json:"proxy_errors" prom:"harvestrouter_proxy_errors_total,counter" help:"Backend transport failures."`
	Unavailable   uint64                  `json:"unavailable_503s" prom:"harvestrouter_unavailable_total,counter" help:"503s from staleness or an open circuit."`
	Promotions    uint64                  `json:"promotions" prom:"harvestrouter_promotions_total,counter" help:"Promoted followers whose first beat as primary took over routes on this router."`
	Binary        *BinaryFrontStats       `json:"binary,omitempty"`
	Backends      map[string]BackendStats `json:"backends" labels:"backend"`
}

// BinaryFrontStats is the binary listener's section of /metrics, present only
// when the router serves the binary dialect.
type BinaryFrontStats struct {
	Addr          string `json:"addr,omitempty"`
	AcceptedConns uint64 `json:"accepted_conns" prom:"harvestrouter_binary_accepted_conns_total,counter" help:"Binary client connections accepted."`
	OpenConns     int64  `json:"open_conns" prom:"harvestrouter_binary_open_conns,gauge" help:"Binary client connections currently open."`
	FramingErrors uint64 `json:"framing_errors" prom:"harvestrouter_binary_framing_errors_total,counter" help:"Connections dropped for bad framing."`
	Forwarded     uint64 `json:"forwarded" prom:"harvestrouter_binary_forwarded_total,counter" help:"Frames relayed natively to a binary backend."`
	Rejected      uint64 `json:"rejected" prom:"harvestrouter_binary_rejected_total,counter" help:"Error frames originated by the router."`
	// Ops is the per-opcode latency and error breakdown at the router's frame
	// dispatch — the same row shape as the shards' binary endpoints, so a
	// dashboard can subtract the two and see the relay's own cost. Every
	// request opcode has a row, even before its first frame.
	Ops map[string]opRow `json:"ops" labels:"op"`
}

// metricsResponse is the router's /metrics: the JSON document, and — its
// uptime and "router" section, never the backends' books — the Prometheus
// exposition, both rendered from its tags (obs.WriteMetrics).
type metricsResponse struct {
	UptimeSeconds float64     `json:"uptime_seconds" prom:"harvestrouter_uptime_seconds,gauge" help:"Seconds since the router started."`
	Router        RouterStats `json:"router"`
	// Datacenters is the aggregate across backends: each live backend's
	// /metrics "datacenters" entries for the DCs it owns, merged into one
	// map, so one scrape of the router sees every shard's books.
	Datacenters map[string]json.RawMessage `json:"datacenters"`
	bin         BinaryFrontStats           // what Router.Binary points at when serving binary
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	// The same one-hop cycle breaker as the proxy path: a router scraping a
	// "backend" that is really a router must get a non-200 and move on, not
	// recurse the fan-out.
	if r.Header.Get(hopHeader) != "" {
		writeError(w, http.StatusLoopDetected,
			"routing loop: this backend resolves to a router (check its advertised URL)")
		return
	}
	// Prometheus scrapes are router-local by design: no backend fan-out,
	// so a scrape never blocks on a slow shard. Scrapers that want shard
	// books hit each shard's own /metrics?format=prometheus directly.
	prom := obs.PrometheusFormat(r)
	resp, _ := rt.scrapes.Get().(*metricsResponse)
	if resp == nil {
		resp = &metricsResponse{
			Router:      RouterStats{Backends: make(map[string]BackendStats)},
			Datacenters: make(map[string]json.RawMessage),
		}
	}
	defer rt.scrapes.Put(resp)
	defer clear(resp.Datacenters) // the backends' bytes are not kept
	now := rt.cfg.Clock.Now()
	resp.UptimeSeconds = time.Since(rt.start).Seconds()
	resp.Router = RouterStats{
		Registrations: rt.registrations.Load(),
		RegisterConns: rt.reg.Open(),
		Proxied:       rt.proxiedTotal.Load(),
		ProxyErrors:   rt.proxyErrors.Load(),
		Unavailable:   rt.unavailable.Load(),
		Promotions:    rt.promotions.Load(),
		Backends:      resp.Router.Backends,
	}
	if rt.bin.Serving() {
		ops := resp.bin.Ops
		if ops == nil {
			ops = make(map[string]opRow, len(rt.binOps))
		}
		resp.bin = BinaryFrontStats{
			Addr:          rt.binAdvertise,
			AcceptedConns: rt.bin.Accepted(),
			OpenConns:     rt.bin.Open(),
			FramingErrors: rt.binFramingErrors.Load(),
			Forwarded:     rt.binForwarded.Load(),
			Rejected:      rt.binRejected.Load(),
			Ops:           ops,
		}
		for i := range rt.binOps {
			ops[wire.Ops[i].Name] = opRow{EndpointStats: rt.binOps[i].Stats()}
		}
		resp.Router.Binary = &resp.bin
	}

	type fetchTarget struct {
		url  string
		owns []string
	}
	var targets []fetchTarget
	rt.mu.RLock()
	for id := range resp.Router.Backends {
		if rt.backends[id] == nil {
			delete(resp.Router.Backends, id)
		}
	}
	for id, b := range rt.backends {
		// Filled through a copy, so the generations map it holds is reused;
		// the entry is overwritten, never reinserted.
		st := resp.Router.Backends[id]
		dcs := st.Datacenters
		if dcs == nil {
			dcs = make(map[string]uint64, len(b.dcs))
		}
		clear(dcs)
		st = BackendStats{
			URL:                 b.url,
			BinaryAddr:          b.binAddr,
			ReplicateAddr:       b.replicateAddr,
			Role:                b.role,
			Primary:             b.role != "follower",
			PrimaryID:           b.primaryID,
			Alive:               rt.alive(b, now),
			Draining:            b.draining.Load(),
			LastBeatAgeSeconds:  time.Duration(now.UnixNano() - b.lastBeat.Load()).Seconds(),
			Datacenters:         dcs,
			Proxied:             b.proxied.Load(),
			Reads:               b.reads.Load(),
			InFlight:            b.inflight.Load(),
			Errors:              b.errors.Load(),
			CircuitOpen:         b.openUntil.Load() > now.UnixNano(),
			ConsecutiveFailures: int(b.consecFails.Load()),
			Latency:             backendLatency{EndpointStats: b.lat.Stats()},
		}
		var owns []string
		for name, gen := range b.dcs {
			dcs[name] = gen
			if !prom && rt.table[name].owner == b {
				owns = append(owns, name)
			}
		}
		resp.Router.Backends[id] = st
		if st.Alive && !st.CircuitOpen && len(owns) > 0 {
			targets = append(targets, fetchTarget{url: b.url + "/metrics", owns: owns})
		}
	}
	rt.mu.RUnlock()
	if prom {
		obs.WriteMetrics(w, resp, true)
		return
	}

	// Fan the backend scrapes out concurrently; a slow or dead backend costs
	// one ProxyTimeout, not one per backend, and contributes nothing.
	type fetched struct {
		owns []string
		dcs  map[string]json.RawMessage
	}
	results := make([]fetched, len(targets))
	var wg sync.WaitGroup
	for i, tgt := range targets {
		wg.Add(1)
		go func(i int, tgt fetchTarget) {
			defer wg.Done()
			var payload struct {
				Datacenters map[string]json.RawMessage `json:"datacenters"`
			}
			req, err := http.NewRequest("GET", tgt.url, nil)
			if err != nil {
				return
			}
			req.Header.Set(hopHeader, "1")
			res, err := rt.client.Do(req)
			if err != nil {
				return
			}
			defer res.Body.Close()
			if res.StatusCode != http.StatusOK {
				return
			}
			// Same cap as the proxy path: a maliciously registered backend
			// must not balloon router memory through the scrape either.
			if json.NewDecoder(io.LimitReader(res.Body, maxProxyResponse)).Decode(&payload) != nil {
				return
			}
			results[i] = fetched{owns: tgt.owns, dcs: payload.Datacenters}
		}(i, tgt)
	}
	wg.Wait()
	for _, res := range results {
		for _, name := range res.owns {
			if raw, ok := res.dcs[name]; ok {
				resp.Datacenters[name] = raw
			}
		}
	}
	obs.WriteMetrics(w, resp, false)
}
