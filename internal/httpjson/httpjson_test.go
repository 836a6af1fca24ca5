package httpjson

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// FuzzJSONAppend holds AppendFloat and AppendString, in both of its string
// types, to the bytes json.Marshal writes for the same float64 and string.
func FuzzJSONAppend(f *testing.F) {
	f.Add(0.0, []byte("plain"))
	f.Add(-1e-7, []byte("<a href=\"x\">&  </a>\b\f\n\r\t\x00\x1f\x7f"))
	f.Add(1e21, []byte{'a', 0xff, 0xed, 0xa0, 0x80, 0xe2, 0x80})
	f.Add(123456.789e-3, []byte("ünïcødé \\ \"quoted\""))
	f.Fuzz(func(t *testing.T, v float64, s []byte) {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			want, _ := json.Marshal(v)
			if got := AppendFloat(nil, v); !bytes.Equal(got, want) {
				t.Errorf("AppendFloat(%v) = %s, want %s", v, got, want)
			}
		}
		want, _ := json.Marshal(string(s))
		if got := AppendString(nil, s); !bytes.Equal(got, want) {
			t.Errorf("AppendString(%q) = %s, want %s", s, got, want)
		}
		if got := AppendString([]byte("x"), string(s)); !bytes.Equal(got[1:], want) {
			t.Errorf("AppendString(%q) as a string = %s, want %s", s, got[1:], want)
		}
	})
}
