package regproto

import (
	"bytes"
	"net"
	"reflect"
	"testing"
	"unsafe"

	"harvest/internal/wire"
)

// TestBeatFramesRoundTrip: both messages survive their frame, and decoding
// the same beat again keeps every string it holds — no copy, no allocation.
func TestBeatFramesRoundTrip(t *testing.T) {
	beat := RegisterRequest{
		ID: "f1", URL: "http://127.0.0.1:7077", BinaryAddr: "127.0.0.1:7078", Role: "follower",
		PrimaryID: "p1", ReplicateAddr: "127.0.0.1:7079", Draining: true,
		Datacenters: []wire.ReplDCGen{{DC: "DC-3", Generation: 7}, {DC: "DC-9", Generation: 1 << 40}},
	}
	frame := AppendRegisterRequest(nil, 42, &beat)
	h, err := wire.ParseHeader(frame)
	if err != nil || h.Op != wire.OpRegister || h.ID != 42 {
		t.Fatalf("header %+v, %v", h, err)
	}
	var got RegisterRequest
	if err := got.Decode(frame[wire.HeaderSize:]); err != nil || !reflect.DeepEqual(got, beat) {
		t.Fatalf("decoded %+v, %v; want %+v", got, err, beat)
	}
	id := unsafe.StringData(got.ID)
	name := unsafe.StringData(got.Datacenters[1].DC)
	if n := testing.AllocsPerRun(100, func() { got.Decode(frame[wire.HeaderSize:]) }); n != 0 {
		t.Errorf("decoding a repeated beat allocated %v objects", n)
	}
	if unsafe.StringData(got.ID) != id || unsafe.StringData(got.Datacenters[1].DC) != name {
		t.Error("a repeated beat copied strings it already held")
	}

	ack := RegisterResponse{PrimaryReplicateAddr: "127.0.0.1:7079", Promote: true}
	frame = AppendRegisterResponse(nil, 42, &ack)
	var gotAck RegisterResponse
	if err := gotAck.Decode(frame[wire.HeaderSize:]); err != nil || gotAck != ack {
		t.Fatalf("decoded %+v, %v; want %+v", gotAck, err, ack)
	}
	if n := testing.AllocsPerRun(100, func() { gotAck.Decode(frame[wire.HeaderSize:]) }); n != 0 {
		t.Errorf("decoding a repeated ack allocated %v objects", n)
	}
}

// FuzzRegisterRequestDecode: any payload either fails to decode or is exactly
// the encoding of what it decoded to, and a lying datacenter count never
// sizes an allocation past what the payload holds.
func FuzzRegisterRequestDecode(f *testing.F) {
	f.Add(AppendRegisterRequest(nil, 1, &RegisterRequest{ID: "n", URL: "http://x:1", Datacenters: []wire.ReplDCGen{{DC: "D", Generation: 2}}})[wire.HeaderSize:])
	f.Add([]byte{1, 'n', 0, 0, 0, 0, 0, 0, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, payload []byte) {
		var m RegisterRequest
		if m.Decode(payload) != nil {
			if cap(m.Datacenters)*9 > len(payload) {
				t.Fatalf("%d datacenter slots for a %d-byte payload", cap(m.Datacenters), len(payload))
			}
			return
		}
		if again := AppendRegisterRequest(nil, 1, &m)[wire.HeaderSize:]; !bytes.Equal(again, payload) {
			t.Fatalf("decode→encode %x, want %x", again, payload)
		}
	})
}

// FuzzRegisterResponseDecode: any payload either fails to decode or is
// exactly the encoding of what it decoded to.
func FuzzRegisterResponseDecode(f *testing.F) {
	f.Add(AppendRegisterResponse(nil, 1, &RegisterResponse{PrimaryReplicateAddr: "127.0.0.1:7079", Promote: true})[wire.HeaderSize:])
	f.Add([]byte{0, 2})
	f.Fuzz(func(t *testing.T, payload []byte) {
		var m RegisterResponse
		if m.Decode(payload) != nil {
			return
		}
		if again := AppendRegisterResponse(nil, 1, &m)[wire.HeaderSize:]; !bytes.Equal(again, payload) {
			t.Fatalf("decode→encode %x, want %x", again, payload)
		}
	})
}

func TestAdvertiseAddr(t *testing.T) {
	tcp := func(ip net.IP) net.Addr { return &net.TCPAddr{IP: ip, Port: 7077} }
	for _, tc := range []struct {
		bound net.Addr
		host  string
		want  string
	}{
		{tcp(nil), "", "127.0.0.1:7077"}, // ":7077"
		{tcp(net.IPv4zero), "", "127.0.0.1:7077"},
		{tcp(net.IPv6unspecified), "", "127.0.0.1:7077"},
		{tcp(net.IPv4(10, 0, 0, 5)), "", "10.0.0.5:7077"},
		{tcp(net.IPv6loopback), "", "[::1]:7077"},
		{tcp(net.IPv4zero), "node-a.example", "node-a.example:7077"},
		{tcp(net.IPv4(10, 0, 0, 5)), "node-a.example", "node-a.example:7077"},
		{tcp(nil), "fd00::7", "[fd00::7]:7077"},
		{tcp(net.IPv4(10, 0, 0, 5)), "0.0.0.0", "127.0.0.1:7077"},
		{&net.UnixAddr{Name: "/run/harvestd.sock", Net: "unix"}, "node-a.example", "/run/harvestd.sock"},
	} {
		if got := AdvertiseAddr(tc.bound, tc.host); got != tc.want {
			t.Errorf("AdvertiseAddr(%q, %q) = %q, want %q", tc.bound, tc.host, got, tc.want)
		}
	}
}
