// Package httpjson holds the one copy of the serving tier's JSON response
// convention: every response is pre-serialized and goes out with an explicit
// Content-Length in a single write — never chunked — so pipelined clients
// (cmd/loadgen's raw HTTP/1.1 reader) can parse responses from any tier,
// harvestd or harvestrouter, identically. The shared bearer-token gate lives
// here too, so the ingest and registration surfaces authenticate the same
// way, and so does Scanner, which reads harvestd's data-plane request bodies —
// select, release, renew, place, blocks, reimage, telemetry — in the strict
// shape the in-repo clients post without encoding/json.
package httpjson

import (
	"bytes"
	"crypto/subtle"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"sync"
)

type errorResponse struct {
	Error string `json:"error"`
}

// scratch pools the encoder and its backing buffer so the hot query
// endpoints serialize without a per-response allocation of either.
type scratch struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var scratches = sync.Pool{New: func() any {
	s := &scratch{}
	s.enc = json.NewEncoder(&s.buf)
	return s
}}

// contentTypeJSON is every reply's Content-Type value, shared rather than
// built per reply; net/http only reads a header's values, never writes them.
var contentTypeJSON = []string{"application/json"}

// Write serializes v up front so the response carries an explicit
// Content-Length and goes out in one write.
func Write(w http.ResponseWriter, status int, v any) {
	s := scratches.Get().(*scratch)
	s.buf.Reset()
	if err := s.enc.Encode(v); err != nil {
		scratches.Put(s)
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	h := w.Header()
	h["Content-Type"] = contentTypeJSON
	h.Set("Content-Length", strconv.Itoa(s.buf.Len()))
	w.WriteHeader(status)
	w.Write(s.buf.Bytes())
	scratches.Put(s)
}

// WriteError writes the uniform {"error": msg} body.
func WriteError(w http.ResponseWriter, status int, msg string) {
	Write(w, status, errorResponse{Error: msg})
}

// BearerAuthorized reports whether the request presents the expected
// "Authorization: Bearer <want>" token. An empty want means the surface is
// open. subtle.ConstantTimeCompare is overkill for a shared cluster token,
// but the comparison is still written to not leak the prefix length.
func BearerAuthorized(r *http.Request, want string) bool {
	if want == "" {
		return true
	}
	got, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
	return ok && subtle.ConstantTimeCompare([]byte(got), []byte(want)) == 1
}
