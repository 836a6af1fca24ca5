package obs

import (
	"encoding/json"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"reflect"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"harvest/internal/httpjson"
)

// DebugMux builds the off-data-plane debug surface: pprof, expvar's document,
// build info, and the trace viewer. Daemons serve it on a dedicated
// -debug-addr listener so profiling and trace dumps never contend with (or get
// proxied like) data-plane requests.
func DebugMux(component string, rec *Recorder) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", newVarsHandler())
	mux.HandleFunc("/debug/build", func(w http.ResponseWriter, r *http.Request) {
		writeBuildInfo(w, component)
	})
	mux.Handle("/debug/traces", TracesHandler(rec))
	mux.HandleFunc("/{$}", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte(component + " debug plane:\n" +
			"  /debug/traces   last-N + slowest-since-boot request traces (?trace=, ?dc=, ?min_us=, ?limit=)\n" +
			"  /debug/pprof/   live profiling\n" +
			"  /debug/vars     expvar's cmdline and memstats\n" +
			"  /debug/build    build info\n"))
	})
	return mux
}

// NewServer is the http.Server every listener of both daemons serves h on:
// its timeouts reclaim the goroutine of a client that stalls mid-header or
// idles forever.
func NewServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second, IdleTimeout: 2 * time.Minute}
}

// ServeDebug binds addr and serves the debug mux in the background,
// returning the bound address (useful with ":0").
func ServeDebug(addr, component string, rec *Recorder) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	go NewServer(DebugMux(component, rec)).Serve(ln) //nolint — debug plane lives for the process
	return ln.Addr().String(), nil
}

// varsHandler serves /debug/vars: expvar's document, {"cmdline", "memstats"}
// in its layout, with runtime.MemStats rendered through its plan into storage
// kept between scrapes. expvar's own handler marshals the stats by reflection
// on every scrape and builds encoding/json's cache for the type on the
// first; a heap probe that reads Mallocs before and after a window counted
// both. Here the plan, the cmdline (os.Args never changes) and a buffer for
// the longest document are built with the handler, so a scrape allocates
// only net/http's Content-Length. The reply is written under the lock, as it
// is the kept buffer: a scrape waits for the one before it to be written.
type varsHandler struct {
	mu    sync.Mutex
	stats runtime.MemStats
	plan  *node
	head  int // the bytes of enc.buf up to the memstats value
	enc   jsonEncoder
}

var varsContentType = []string{"application/json; charset=utf-8"}

func newVarsHandler() *varsHandler {
	cmdline, _ := json.Marshal(os.Args) // a []string always marshals
	h := &varsHandler{plan: planOf(reflect.TypeFor[*runtime.MemStats]())}
	h.enc.buf = append(append([]byte("{\n\"cmdline\": "), cmdline...), ",\n\"memstats\": "...)
	h.head = len(h.enc.buf)
	// Size the buffer once, by the longest document the type can make.
	widest(reflect.ValueOf(&h.stats).Elem())
	h.render() // the widest value holds no NaN or Inf to refuse
	return h
}

// render writes the document for h.stats into h.enc.buf; h.mu held.
func (h *varsHandler) render() error {
	h.enc.buf = h.enc.buf[:h.head]
	err := h.enc.value(h.plan, reflect.ValueOf(&h.stats))
	h.enc.buf = append(h.enc.buf, "\n}\n"...)
	return err
}

// widest sets every unsigned integer and float in v to its longest JSON
// form, through structs and arrays.
func widest(v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := range v.NumField() {
			if v.Field(i).CanSet() {
				widest(v.Field(i))
			}
		}
	case reflect.Array:
		for i := range v.Len() {
			widest(v.Index(i))
		}
	case reflect.Float64:
		v.SetFloat(-1.2345678901234567e-6) // 25 bytes: the 'f' form at its longest
	default:
		if v.CanUint() {
			v.SetUint(math.MaxUint64) // truncated to the field's own maximum
		}
	}
}

func (h *varsHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mu.Lock()
	defer h.mu.Unlock()
	runtime.ReadMemStats(&h.stats)
	if err := h.render(); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	httpjson.Reply(w, http.StatusOK, varsContentType, h.enc.buf)
}

func writeBuildInfo(w http.ResponseWriter, component string) {
	type buildJSON struct {
		Component string            `json:"component"`
		GoVersion string            `json:"go_version"`
		Path      string            `json:"path,omitempty"`
		Version   string            `json:"version,omitempty"`
		Settings  map[string]string `json:"settings,omitempty"`
	}
	out := buildJSON{Component: component}
	if bi, ok := debug.ReadBuildInfo(); ok {
		out.GoVersion = bi.GoVersion
		out.Path = bi.Path
		out.Version = bi.Main.Version
		out.Settings = make(map[string]string, len(bi.Settings))
		for _, s := range bi.Settings {
			out.Settings[s.Key] = s.Value
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

// spanJSON / traceJSON are the /debug/traces wire shapes.
type spanJSON struct {
	Name    string `json:"name"`
	StartUs int64  `json:"start_us"`
	DurUs   int64  `json:"duration_us"`
}

type traceJSON struct {
	ID      string     `json:"id"`
	Dialect string     `json:"dialect"`
	Op      string     `json:"op"`
	DC      string     `json:"dc,omitempty"`
	JobID   string     `json:"job_id,omitempty"`
	Owner   string     `json:"owner,omitempty"`
	Status  int        `json:"status"`
	Start   time.Time  `json:"start"`
	DurUs   int64      `json:"duration_us"`
	Spans   []spanJSON `json:"spans"`
}

// TracesHandler serves GET /debug/traces: the ring plus the slow reservoir,
// newest first, filterable by ?trace= (16-hex-digit wire form, or a decimal
// u64 for binary-dialect clients that picked their own request ids), ?dc=,
// ?min_us= / ?min_ms= (minimum total latency), and ?limit=.
func TracesHandler(rec *Recorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		q := r.URL.Query()
		f := TraceFilter{DC: q.Get("dc")}
		if v := q.Get("limit"); v != "" {
			if n, err := strconv.Atoi(v); err == nil && n > 0 {
				f.Limit = n
			}
		}
		if v := q.Get("min_us"); v != "" {
			if n, err := strconv.ParseInt(v, 10, 64); err == nil && n > 0 {
				f.MinDur = time.Duration(n) * time.Microsecond
			}
		}
		if v := q.Get("min_ms"); v != "" {
			if n, err := strconv.ParseInt(v, 10, 64); err == nil && n > 0 {
				f.MinDur = time.Duration(n) * time.Millisecond
			}
		}
		var traces []*Trace
		if s := q.Get("trace"); s != "" {
			// A trace id printed from the JSON dialect is hex; a binary
			// client may know its id as the decimal u64 it sent. Accept both
			// readings and merge (ids are random, collisions don't matter).
			seen := map[uint64]bool{}
			if id, ok := ParseTraceID(s); ok {
				seen[id] = true
				f.ID = id
				traces = append(traces, rec.Query(f)...)
			}
			if id, err := strconv.ParseUint(s, 10, 64); err == nil && id != 0 && !seen[id] {
				f.ID = id
				traces = append(traces, rec.Query(f)...)
			}
		} else {
			traces = rec.Query(f)
		}
		out := struct {
			Traces []traceJSON `json:"traces"`
		}{Traces: make([]traceJSON, 0, len(traces))}
		for _, t := range traces {
			tj := traceJSON{
				ID:      FormatTraceID(t.ID),
				Dialect: t.Dialect,
				Op:      t.Op,
				DC:      t.DC,
				JobID:   t.JobID,
				Owner:   t.Owner,
				Status:  t.Status,
				Start:   t.Start,
				DurUs:   t.DurUs,
				Spans:   make([]spanJSON, 0, len(t.Spans())),
			}
			for _, s := range t.Spans() {
				tj.Spans = append(tj.Spans, spanJSON{Name: s.Name, StartUs: s.StartUs, DurUs: s.DurUs})
			}
			out.Traces = append(out.Traces, tj)
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(out)
	})
}
