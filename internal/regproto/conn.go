package regproto

import (
	"bufio"
	"crypto/tls"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"time"

	"harvest/internal/wire"
)

// UpgradeToken is the protocol a node's POST /v1/register asks the router to
// upgrade its connection to. Its version names the frames' layout, so a node
// and a router that spell them differently part at the upgrade.
const UpgradeToken = "harvest-register/2"

// Conn is one upgraded registration connection. The node beats on it with
// Beat; the router reads each beat with ReadBeat and answers with Ack or
// Refuse. Frames are built and read in buffers the Conn keeps, so once they
// have grown a beat costs neither side a heap object. A Conn is used by one
// goroutine at a time.
type Conn struct {
	nc      net.Conn
	br      *bufio.Reader // what the handshake was read through
	in, out []byte
	id      uint64        // the node's last beat
	timeout time.Duration // the node's bound on one beat's round trip
}

// NetConn returns the connection the protocol runs on.
func (c *Conn) NetConn() net.Conn { return c.nc }

// Close closes the connection.
func (c *Conn) Close() error { return c.nc.Close() }

// Dial opens a registration connection to the router at routerURL, an
// http(s) base URL: a POST /v1/register asking to upgrade, carrying token as
// a bearer token when one is given, which the router must answer 101. The
// handshake, and every Beat after it, must complete within timeout.
func Dial(routerURL, token string, timeout time.Duration) (*Conn, error) {
	req, err := http.NewRequest(http.MethodPost, routerURL+"/v1/register", nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Connection", "Upgrade")
	req.Header.Set("Upgrade", UpgradeToken)
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	port, tlsConfig := "80", (*tls.Config)(nil)
	switch req.URL.Scheme {
	case "http":
	case "https":
		port, tlsConfig = "443", &tls.Config{ServerName: req.URL.Hostname()}
	default:
		return nil, fmt.Errorf("regproto: router URL %q is not http(s)", routerURL)
	}
	addr := req.URL.Host
	if req.URL.Port() == "" {
		addr = net.JoinHostPort(req.URL.Hostname(), port)
	}
	d := &net.Dialer{Timeout: timeout}
	var nc net.Conn
	if tlsConfig != nil {
		nc, err = tls.DialWithDialer(d, "tcp", addr, tlsConfig)
	} else {
		nc, err = d.Dial("tcp", addr)
	}
	if err != nil {
		return nil, err
	}
	c := &Conn{nc: nc, br: bufio.NewReader(nc), timeout: timeout}
	if err := c.handshake(req); err != nil {
		nc.Close()
		return nil, err
	}
	return c, nil
}

func (c *Conn) handshake(req *http.Request) error {
	if err := c.nc.SetDeadline(time.Now().Add(c.timeout)); err != nil {
		return err
	}
	if err := req.Write(c.nc); err != nil {
		return err
	}
	resp, err := http.ReadResponse(c.br, req)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusSwitchingProtocols {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		resp.Body.Close()
		return fmt.Errorf("router refused the registration upgrade: %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	if got := resp.Header.Get("Upgrade"); !strings.EqualFold(got, UpgradeToken) {
		return fmt.Errorf("router upgraded the registration to %q, want %q", got, UpgradeToken)
	}
	return nil
}

// RefusedError is a router's refusal of one beat, with an HTTP status and a
// message. The connection stays usable.
type RefusedError struct {
	Status  int
	Message string
}

func (e *RefusedError) Error() string {
	return fmt.Sprintf("router refused the beat: %d %s", e.Status, e.Message)
}

// Beat sends req and reads the router's answer into ack (see
// RegisterResponse.Decode). A refusal is a *RefusedError; any other error
// leaves the connection unusable.
func (c *Conn) Beat(req *RegisterRequest, ack *RegisterResponse) error {
	c.id++
	if err := c.nc.SetDeadline(time.Now().Add(c.timeout)); err != nil {
		return err
	}
	c.out = AppendRegisterRequest(c.out[:0], c.id, req)
	if _, err := c.nc.Write(c.out); err != nil {
		return err
	}
	h, raw, err := wire.ReadRawFrame(c.br, &c.in, true)
	if err != nil {
		return err
	}
	if h.ID != c.id {
		return fmt.Errorf("regproto: answer to beat %d, want beat %d", h.ID, c.id)
	}
	switch h.Op {
	case wire.OpRegisterResp:
		return ack.Decode(raw[wire.HeaderSize:])
	case wire.OpError:
		var e wire.ErrorResp
		if err := e.Decode(raw[wire.HeaderSize:]); err != nil {
			return err
		}
		return &RefusedError{Status: int(e.Code), Message: string(e.Message)}
	}
	return fmt.Errorf("regproto: %v frame answering a beat", h.Op)
}

// IsUpgrade reports whether r asks to upgrade its connection to registration
// frames.
func IsUpgrade(r *http.Request) bool {
	return strings.EqualFold(r.Header.Get("Upgrade"), UpgradeToken)
}

// Accept takes over the connection w answers and switches it to registration
// frames with a 101 response. The caller has authorized the request, and owns
// the returned Conn; w must not be used again.
func Accept(w http.ResponseWriter) (*Conn, error) {
	nc, brw, err := http.NewResponseController(w).Hijack()
	if err != nil {
		return nil, err
	}
	if _, err := io.WriteString(nc, "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: "+UpgradeToken+"\r\n\r\n"); err != nil {
		nc.Close()
		return nil, err
	}
	return &Conn{nc: nc, br: brw.Reader}, nil
}

// ReadBeat reads the next beat into req (see RegisterRequest.Decode) and
// returns its frame id, which the answer echoes. A beat must arrive within
// idle. An error ends the connection: a frame that is not a beat, or a beat
// that does not decode, is the peer not speaking the protocol.
func (c *Conn) ReadBeat(req *RegisterRequest, idle time.Duration) (uint64, error) {
	if err := c.nc.SetDeadline(time.Now().Add(idle)); err != nil {
		return 0, err
	}
	h, raw, err := wire.ReadRawFrame(c.br, &c.in, true)
	if err != nil {
		return 0, err
	}
	if h.Op != wire.OpRegister {
		return 0, fmt.Errorf("regproto: %v frame on a registration connection", h.Op)
	}
	return h.ID, req.Decode(raw[wire.HeaderSize:])
}

// Ack answers beat id with ack.
func (c *Conn) Ack(id uint64, ack *RegisterResponse) error {
	c.out = AppendRegisterResponse(c.out[:0], id, ack)
	_, err := c.nc.Write(c.out)
	return err
}

// Refuse answers beat id with an error frame carrying status and msg.
func (c *Conn) Refuse(id uint64, status int, msg string) error {
	c.out = wire.AppendErrorResp(c.out[:0], id, uint16(status), msg)
	_, err := c.nc.Write(c.out)
	return err
}
