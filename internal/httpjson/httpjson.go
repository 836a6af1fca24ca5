// Package httpjson holds the one copy of the serving tier's JSON response
// convention: every response is pre-serialized and goes out with an explicit
// Content-Length in a single write — never chunked — so pipelined clients
// (cmd/loadgen's raw HTTP/1.1 reader) can parse responses from any tier,
// harvestd or harvestrouter, identically. The shared bearer-token gate lives
// here too, so the ingest and registration surfaces authenticate the same
// way, and so does Scanner, which reads harvestd's data-plane request bodies —
// select, release, renew, place, blocks, reimage, telemetry — in the strict
// shape the in-repo clients post without encoding/json. AppendFloat and
// AppendString write numbers and strings exactly as encoding/json does, for
// the encoders that do without it.
package httpjson

import (
	"bytes"
	"crypto/subtle"
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"
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
	Reply(w, status, contentTypeJSON, s.buf.Bytes())
	scratches.Put(s)
}

// Reply sends an already serialized body under contentType (a shared value,
// never written to) with an explicit Content-Length, in one write.
func Reply(w http.ResponseWriter, status int, contentType []string, body []byte) {
	h := w.Header()
	h["Content-Type"] = contentType
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	w.Write(body)
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

// AppendFloat appends a finite f as encoding/json writes a float64: the
// shortest representation, in exponent form only below 1e-6 or from 1e21 on,
// and a two-digit negative exponent shortened to one.
func AppendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-09 becomes e-9
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// AppendString appends s as encoding/json writes a string: the quote and the
// backslash escaped, the short escapes for \b, \f, \n, \r and \t, every other
// control character and <, > and & as \u00XX, U+2028 and U+2029 as \u escapes,
// and each byte of invalid UTF-8 as \ufffd.
func AppendString[S string | []byte](dst []byte, s S) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch {
			case c == '"' || c == '\\':
				dst = append(dst, '\\', c)
			case c >= '\b' && c <= '\r' && c != '\v':
				dst = append(dst, '\\', "btn?fr"[c-'\b'])
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(string(s[i:min(i+utf8.UTFMax, len(s))]))
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
