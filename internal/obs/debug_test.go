package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"expvar"
	"io"
	"maps"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"
)

// TestDebugVarsIsExpvar holds /debug/vars to expvar's handler: the memstats
// object is byte for byte encoding/json's for the same value, every field of
// the type set (a field a Go release adds that the plan mishandles shows
// here), and the document keeps expvar's keys and layout, sent with its
// Content-Length.
func TestDebugVarsIsExpvar(t *testing.T) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	fill(reflect.ValueOf(&ms).Elem(), 1)
	ms.GCCPUFraction = 0.012345678901234567
	h := newVarsHandler()
	for _, v := range []runtime.MemStats{ms, {}} {
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		h.stats = v
		if err := h.render(); err != nil {
			t.Fatal(err)
		}
		if got := h.enc.buf[h.head:]; !bytes.Equal(got, append(want, "\n}\n"...)) {
			t.Errorf("plan wrote\n%s\nencoding/json writes\n%s", got, want)
		}
	}

	ours, theirs := httptest.NewRecorder(), httptest.NewRecorder()
	DebugMux("test", NewRecorder(8)).ServeHTTP(ours, httptest.NewRequest(http.MethodGet, "/debug/vars", nil))
	expvar.Handler().ServeHTTP(theirs, httptest.NewRequest(http.MethodGet, "/debug/vars", nil))
	if ours.Code != http.StatusOK {
		t.Fatalf("status %d", ours.Code)
	}
	if got, want := ours.Header().Get("Content-Type"), theirs.Header().Get("Content-Type"); got != want {
		t.Errorf("Content-Type %q, expvar's %q", got, want)
	}
	if n, _ := strconv.Atoi(ours.Header().Get("Content-Length")); n != ours.Body.Len() {
		t.Errorf("Content-Length %d for %d bytes", n, ours.Body.Len())
	}
	// The memstats values differ between two reads; everything around them
	// is expvar's.
	cmdline, _ := json.Marshal(os.Args)
	head := "{\n\"cmdline\": " + string(cmdline) + ",\n\"memstats\": "
	for who, body := range map[string][]byte{"ours": ours.Body.Bytes(), "expvar's": theirs.Body.Bytes()} {
		if !bytes.HasPrefix(body, []byte(head)) || !bytes.HasSuffix(body, []byte("}\n}\n")) {
			t.Errorf("%s document is not {\\n\"cmdline\": …,\\n\"memstats\": …\\n}\\n:\n%s", who, body)
		}
	}
	keys := func(body []byte) []string {
		var doc map[string]json.RawMessage
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatal(err)
		}
		return slices.Sorted(maps.Keys(doc))
	}
	if got, want := keys(ours.Body.Bytes()), keys(theirs.Body.Bytes()); !slices.Equal(got, want) {
		t.Errorf("keys %v, expvar's %v", got, want)
	}
	var doc struct{ MemStats runtime.MemStats }
	if err := json.Unmarshal(ours.Body.Bytes(), &doc); err != nil || doc.MemStats.Mallocs == 0 || doc.MemStats.NumGC == 0 && doc.MemStats.HeapAlloc == 0 {
		t.Errorf("memstats decodes to %+v, %v", doc.MemStats, err)
	}
}

// fill sets every number in v to a distinct non-zero value and every bool to
// true, through arrays and structs.
func fill(v reflect.Value, n uint64) uint64 {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				n = fill(v.Field(i), n)
			}
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			n = fill(v.Index(i), n)
		}
	case reflect.Uint32, reflect.Uint64:
		v.SetUint(n * 1_000_003 % (1 << 31))
		n++
	case reflect.Float64:
		v.SetFloat(float64(n) / 7)
		n++
	case reflect.Bool:
		v.SetBool(true)
	}
	return n
}

// varsScrape serves GET /debug/vars through mux into a discarding writer,
// as TestMetricsScrapeAllocs serves /metrics.
func varsScrape(t *testing.T, mux http.Handler) func() {
	req, err := http.NewRequest(http.MethodGet, "http://debug/debug/vars", nil)
	if err != nil {
		t.Fatal(err)
	}
	w := &discardWriter{h: http.Header{"Content-Type": nil}} // the map's storage, kept through clear
	return func() {
		clear(w.h)
		w.status = http.StatusOK
		mux.ServeHTTP(w, req)
		if w.status != http.StatusOK || w.n == 0 {
			t.Fatalf("GET /debug/vars answered %d with %d bytes", w.status, w.n)
		}
	}
}

type discardWriter struct {
	h      http.Header
	status int
	n      int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) { w.n = len(b); return len(b), nil }
func (w *discardWriter) WriteHeader(status int)      { w.status = status }

// TestDebugVarsScrapeAllocs is /debug/vars' object budget, /metrics' own: the
// plan and the cmdline are built with the mux, so the first scrape, like
// every later one, reads the stats and renders them into kept storage,
// costing net/http's Content-Length. expvar's handler, measured the same way,
// cost 312 objects on a process's first scrape and 11 on each later one.
func TestDebugVarsScrapeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	serve := varsScrape(t, DebugMux("test", NewRecorder(8)))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	serve()
	runtime.ReadMemStats(&after)
	if got := after.Mallocs - before.Mallocs; got > 2 {
		t.Errorf("first scrape: %d allocs, budget 2", got)
	}
	if got := testing.AllocsPerRun(50, serve); got > 2 {
		t.Errorf("%v allocs per scrape, budget 2", got)
	}
}

// TestDebugVarsConcurrentScrapes scrapes one mux from several goroutines at
// once: the storage the handler keeps between scrapes is lent to one at a
// time, so every document is whole.
func TestDebugVarsConcurrentScrapes(t *testing.T) {
	mux := DebugMux("test", NewRecorder(8))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				w := httptest.NewRecorder()
				mux.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/debug/vars", nil))
				var doc struct {
					Cmdline  []string
					MemStats struct{ Mallocs uint64 }
				}
				if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil || doc.MemStats.Mallocs == 0 ||
					!slices.Equal(doc.Cmdline, os.Args) {
					t.Errorf("scrape %d: %v\n%s", i, err, w.Body)
					return
				}
				if n, _ := strconv.Atoi(w.Header().Get("Content-Length")); n != w.Body.Len() {
					t.Errorf("Content-Length %d for %d bytes", n, w.Body.Len())
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestServerTimeouts pins what NewServer gives every listener of both
// daemons: 10 s for a request header, 2 minutes for an idle connection.
func TestServerTimeouts(t *testing.T) {
	srv := NewServer(http.NotFoundHandler())
	if srv.ReadHeaderTimeout != 10*time.Second || srv.IdleTimeout != 2*time.Minute {
		t.Fatalf("ReadHeaderTimeout %v, IdleTimeout %v; want 10s, 2m", srv.ReadHeaderTimeout, srv.IdleTimeout)
	}
}

// TestDebugListenerClosesAStalledHeader sends half a request header to the
// debug mux on a NewServer and waits: the header timeout, lowered here from
// its 10 s, closes the connection rather than holding its goroutine for ever.
func TestDebugListenerClosesAStalledHeader(t *testing.T) {
	t.Parallel()
	const timeout = 200 * time.Millisecond
	srv := NewServer(DebugMux("test", NewRecorder(8)))
	srv.ReadHeaderTimeout = timeout
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := io.WriteString(c, "GET /debug/build HTTP/1.1\r\nHost: debug\r\n"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	c.SetReadDeadline(start.Add(30 * time.Second))
	n, err := c.Read(make([]byte, 1))
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("the connection is still open after %v", time.Since(start).Round(time.Second))
	}
	if n != 0 || err == nil {
		t.Fatalf("read %d bytes, %v: the half-sent request was answered", n, err)
	}
	if waited := time.Since(start); waited < timeout*9/10 {
		t.Errorf("closed after %v, before the header timeout", waited)
	}
}
