package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// clockTick is the kernel's USER_HZ: the unit of utime and stime in
// /proc/<pid>/stat. It is 100 on every Linux this benchmark runs on.
const clockTick = 100

// httpClient is the control-plane client (readiness polls, /metrics,
// telemetry POSTs). Data-plane traffic never goes through it.
var httpClient = &http.Client{Timeout: 10 * time.Second}

// freePort returns a loopback address whose port was free a moment ago
// (bind :0, read the port, close).
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// proc is one daemon subprocess.
type proc struct {
	name    string
	cmd     *exec.Cmd
	log     *os.File
	logPath string
	done    chan struct{} // closed once Wait has returned
}

// procGroup owns every subprocess of one workload so that an error path, a
// signal, or the workload deadline can take all of them down with one call.
type procGroup struct {
	mu    sync.Mutex
	procs []*proc
}

// start execs bin with args, its stdout and stderr going to logPath.
func (g *procGroup) start(name, bin, logPath string, args ...string) (*proc, error) {
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// If the harness is killed outright its children must not outlive it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, log: logf, logPath: logPath, done: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(p.done)
	}()
	g.mu.Lock()
	g.procs = append(g.procs, p)
	g.mu.Unlock()
	return p, nil
}

// stop asks the process to shut down (SIGTERM, so harvestd drains and
// persists), kills it if it has not exited within grace, and waits until it
// has ended.
func (p *proc) stop(grace time.Duration) {
	select {
	case <-p.done:
	default:
		p.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-p.done:
		case <-time.After(grace):
			p.cmd.Process.Kill()
			<-p.done
		}
	}
	p.log.Close()
}

// stopAll stops every process the group started, newest first.
func (g *procGroup) stopAll() {
	g.mu.Lock()
	procs := g.procs
	g.procs = nil
	g.mu.Unlock()
	for i := len(procs) - 1; i >= 0; i-- {
		procs[i].stop(5 * time.Second)
	}
}

func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// logTail returns the end of the process's log: why it exited, in its own
// words (the file itself is overwritten by the next boot).
func (p *proc) logTail() string {
	data, err := os.ReadFile(p.logPath)
	if err != nil {
		return err.Error()
	}
	if len(data) > 600 {
		data = data[len(data)-600:]
	}
	return strings.TrimSpace(string(data))
}

// errExitedEarly marks a daemon that exited while it was booting. Its addresses
// were free when freePort looked and are bound seconds later, once the daemon
// has bootstrapped; in between, an outgoing connection of any process can be
// given one of them as its source port, and the daemon's listen then fails.
// That is the box, not the system: the caller boots again on fresh ports.
var errExitedEarly = errors.New("exited before it was ready")

// cpuSeconds reads the process's user+system CPU time from /proc/<pid>/stat.
func (p *proc) cpuSeconds() (float64, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(p.cmd.Process.Pid) + "/stat")
	if err != nil {
		return 0, err
	}
	return parseStatCPU(data)
}

// parseStatCPU extracts utime+stime (fields 14 and 15) from a /proc/<pid>/stat
// line. The comm field may contain spaces, so fields are counted from the
// closing parenthesis.
func parseStatCPU(data []byte) (float64, error) {
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat line")
	}
	fields := strings.Fields(string(data[i+1:]))
	if len(fields) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	utime, err1 := strconv.ParseUint(fields[11], 10, 64)
	stime, err2 := strconv.ParseUint(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat cpu fields")
	}
	return float64(utime+stime) / clockTick, nil
}

// selfCPUSeconds is the harness's own CPU time, the same way.
func selfCPUSeconds() (float64, error) {
	data, err := os.ReadFile("/proc/self/stat")
	if err != nil {
		return 0, err
	}
	return parseStatCPU(data)
}

// rssPeakMB reads the process's peak resident set (VmHWM) in MB.
func (p *proc) rssPeakMB() (float64, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(p.cmd.Process.Pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// getJSON GETs url and decodes a 200 response into v.
func getJSON(url string, v any) error {
	resp, err := httpClient.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// waitUntil polls cond every 20 ms until it returns nil, the process it is
// waiting on exits, or the deadline passes.
func waitUntil(deadline time.Time, p *proc, what string, cond func() error) error {
	var last error
	for time.Now().Before(deadline) {
		if last = cond(); last == nil {
			return nil
		}
		if p != nil && p.exited() {
			return fmt.Errorf("%s: %s %w; its log ends: %s", what, p.name, errExitedEarly, p.logTail())
		}
		time.Sleep(20 * time.Millisecond)
	}
	return fmt.Errorf("%s: not ready in time: %w", what, last)
}

// waitServing waits until a node answers /healthz and lists dc on
// /v1/datacenters, and returns the binary address it advertises.
func waitServing(deadline time.Time, p *proc, baseURL, dc string) (binaryAddr string, err error) {
	err = waitUntil(deadline, p, p.name, func() error {
		if err := getJSON(baseURL+"/healthz", &struct{}{}); err != nil {
			return err
		}
		var dcs struct {
			Datacenters []string `json:"datacenters"`
			BinaryAddr  string   `json:"binary_addr"`
		}
		if err := getJSON(baseURL+"/v1/datacenters", &dcs); err != nil {
			return err
		}
		for _, name := range dcs.Datacenters {
			if name == dc {
				binaryAddr = dcs.BinaryAddr
				return nil
			}
		}
		return fmt.Errorf("%s not listed yet", dc)
	})
	return binaryAddr, err
}

// buildDaemons compiles cmd/harvestd and cmd/harvestrouter from the checkout
// into binDir and returns how long that took.
func buildDaemons(root, binDir string) (time.Duration, error) {
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return 0, err
	}
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", binDir+string(filepath.Separator), "./cmd/harvestd", "./cmd/harvestrouter")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return 0, fmt.Errorf("go build daemons: %w\n%s", err, out)
	}
	return time.Since(start), nil
}

// findRoot walks up from the working directory to the checkout root: the
// directory whose go.mod declares module harvest.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && bytes.HasPrefix(bytes.TrimSpace(data), []byte("module harvest\n")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("harvestbench must run inside a checkout of the harvest module (no go.mod with `module harvest` above the working directory)")
		}
		dir = parent
	}
}
