package regproto

import (
	"net"
	"testing"
)

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
