package httpjson

import "strconv"

// Scanner reads a request body in the strict subset of JSON the in-repo
// clients post, straight off the body's bytes: objects whose keys match the
// caller's names exactly, arrays, numbers parsed by strconv, true/false, and
// strings from a set the caller names (Enum). harvestd reads every data-plane
// body with it: select, release, renew, place, blocks, reimage and telemetry.
// It declines everything else — any other string, an escape, a key the caller
// did not name or already read, null, a malformed number, a value its field
// cannot hold, trailing bytes — and a declined body goes to encoding/json,
// which decides it: the scanner never rejects, so every error a client sees is
// encoding/json's, and anything the scanner accepts decodes to what
// encoding/json would have made of it (FuzzJSONBodyScanner).
//
// The caller walks objects and arrays with Next:
//
//	for s.Object(); s.Next(); {
//		switch s.Field("tenant", "utilization") {
//		case 0:
//			id = s.Int()
//		case 1:
//			v = s.Float()
//		}
//	}
//	if !s.Done() { /* declined: fall back to encoding/json */ }
//
// A declined scanner stays declined: Next returns false and the readers
// return zero, so a loop ends at the first decline without checks of its own.
// A Scanner allocates nothing; Reset readies it for a body.
type Scanner struct {
	b        []byte
	i        int
	key      []byte
	depth    int
	closers  [maxScanDepth]byte
	seen     [maxScanDepth]uint64 // per open object: the Field indexes read
	first    bool                 // the innermost open object or array has yielded no member yet
	declined bool
}

// maxScanDepth bounds nesting: a request body is an object, at most holding
// an array of objects.
const maxScanDepth = 4

// Reset starts a scan of b.
func (s *Scanner) Reset(b []byte) { *s = Scanner{b: b} }

func (s *Scanner) decline() bool {
	s.declined = true
	return false
}

// Done reports whether the scanner read one whole value: nothing declined,
// every object and array closed, and only whitespace after it.
func (s *Scanner) Done() bool {
	s.peek()
	return !s.declined && s.depth == 0 && s.i == len(s.b)
}

// Object opens an object where the next value begins.
func (s *Scanner) Object() bool { return s.open('{', '}') }

// Array opens an array where the next value begins.
func (s *Scanner) Array() bool { return s.open('[', ']') }

func (s *Scanner) open(open, close byte) bool {
	if s.declined || s.depth == maxScanDepth || s.peek() != open {
		return s.decline()
	}
	s.i++
	s.closers[s.depth] = close
	s.seen[s.depth] = 0
	s.depth++
	s.first = true
	return true
}

// Next advances to the next member of the innermost open object or array,
// and in an object reads the member's key and colon. At the closing bracket
// it closes the object or array and returns false. The single first flag
// serves every level: a nested value is opened only after its parent's Next
// cleared the parent's flag, and it is closed with its own flag cleared.
func (s *Scanner) Next() bool {
	if s.declined || s.depth == 0 {
		return false
	}
	closer := s.closers[s.depth-1]
	switch c := s.peek(); {
	case c == closer:
		s.i++
		s.depth--
		s.first = false
		return false
	case s.first:
		s.first = false
	case c == ',':
		s.i++
	default:
		return s.decline()
	}
	if closer == ']' {
		return true
	}
	key, ok := s.str()
	if !ok || s.peek() != ':' {
		return s.decline()
	}
	s.key = key
	s.i++
	return true
}

// Field returns the index among names of the key Next just read. A key that
// is not among them byte for byte — another case of one included — or one the
// object already had declines, and returns -1.
func (s *Scanner) Field(names ...string) int {
	for i, name := range names {
		if string(s.key) != name {
			continue
		}
		bit := uint64(1) << i
		if s.seen[s.depth-1]&bit != 0 {
			break
		}
		s.seen[s.depth-1] |= bit
		return i
	}
	s.decline()
	return -1
}

// Int reads a number into an int64. A fraction, an exponent or an overflow
// declines, as encoding/json fails to put those in an integer field.
func (s *Scanner) Int() int64 {
	n, ok := s.number()
	if !ok {
		return 0
	}
	v, err := strconv.ParseInt(string(n), 10, 64)
	if err != nil {
		s.decline()
	}
	return v
}

// Float reads a number into a float64. An overflow declines.
func (s *Scanner) Float() float64 {
	n, ok := s.number()
	if !ok {
		return 0
	}
	v, err := strconv.ParseFloat(string(n), 64)
	if err != nil {
		s.decline()
	}
	return v
}

// Uint reads a number into a uint64. A sign, a fraction, an exponent or an
// overflow declines, as encoding/json fails to put those in an unsigned field.
func (s *Scanner) Uint() uint64 {
	n, ok := s.number()
	if !ok {
		return 0
	}
	v, err := strconv.ParseUint(string(n), 10, 64)
	if err != nil {
		s.decline()
	}
	return v
}

// Enum reads a string that is one of names byte for byte and returns its
// index. Another string, an escape, a control byte or a value that is not a
// string declines, and returns -1: encoding/json decodes the escapes, and the
// caller's own check answers whatever else the client sent.
func (s *Scanner) Enum(names ...string) int {
	v, ok := s.str()
	if !ok {
		return -1
	}
	for i, name := range names {
		if string(v) == name {
			return i
		}
	}
	s.decline()
	return -1
}

// Bool reads true or false.
func (s *Scanner) Bool() bool {
	if s.declined {
		return false
	}
	s.peek()
	for _, lit := range [...]string{"false", "true"} {
		if len(s.b)-s.i >= len(lit) && string(s.b[s.i:s.i+len(lit)]) == lit {
			s.i += len(lit)
			return lit == "true"
		}
	}
	s.decline()
	return false
}

// number consumes the bytes of a number in JSON's grammar:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?. What follows it is Next's or
// Done's to check.
func (s *Scanner) number() ([]byte, bool) {
	if s.declined {
		return nil, false
	}
	s.peek()
	b, start := s.b, s.i
	i := start
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		return nil, s.decline()
	}
	if i < len(b) && b[i] == '.' {
		if i = digits(b, i+1); b[i-1] == '.' {
			return nil, s.decline()
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return nil, s.decline()
		}
		i = j
	}
	s.i = i
	return b[start:i], true
}

// str consumes a string without escapes or control bytes where the next value
// begins and returns the bytes between its quotes.
func (s *Scanner) str() ([]byte, bool) {
	if s.declined || s.peek() != '"' {
		return nil, s.decline()
	}
	for j := s.i + 1; j < len(s.b); j++ {
		switch c := s.b[j]; {
		case c == '"':
			v := s.b[s.i+1 : j]
			s.i = j + 1
			return v, true
		case c == '\\' || c < 0x20:
			return nil, s.decline()
		}
	}
	return nil, s.decline()
}

func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// peek skips whitespace and returns the byte after it, 0 at the end.
func (s *Scanner) peek() byte {
	for ; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}
