package service_test

import (
	"net"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"harvest/internal/core"
	"harvest/internal/fleettest"
	"harvest/internal/router"
	"harvest/internal/service"
)

// TestNodeLifecycle runs a primary and a follower in one process through the
// follower's promotion and both Closes, and holds the runner to its three
// promises: a refresh held mid-publish does not keep the sweeper from
// reclaiming an expired lease (each job has a goroutine of its own), no follow
// iteration runs once Promote has returned, and every background goroutine
// has returned once Close has.
func TestNodeLifecycle(t *testing.T) {
	baseline := runtime.NumGoroutine()

	pcfg := replTestConfig("p1")
	pcfg.RefreshPeriod = 50 * time.Millisecond
	pcfg.LeaseTTL = 100 * time.Millisecond // the sweeper's period clamps to 100 ms
	primary, err := service.New(pcfg)
	if err != nil {
		t.Fatalf("New primary: %v", err)
	}
	held, hold := make(chan struct{}), make(chan struct{})
	release := sync.OnceFunc(func() { close(hold) })
	var rekeys atomic.Int32
	primary.SetTestHookAfterRekey(func() {
		if rekeys.Add(1) == 1 {
			close(held)
			<-hold
		}
	})
	// On a failure below, before the Closes the test makes itself.
	t.Cleanup(func() {
		release()
		primary.Close()
	})
	lease, _, err := primary.SelectReserve(replDC, core.JobRequest{Type: core.JobMedium, MaxConcurrentCores: 2}, 0)
	if err != nil || !lease.Reserved() {
		t.Fatalf("SelectReserve: %+v, %v", lease, err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	primary.ArmReplicationListener(ln)
	primary.Start()

	select {
	case <-held:
	case <-time.After(10 * time.Second):
		t.Fatal("no background refresh reached its publish")
	}
	fleettest.WaitFor(t, "the sweeper to reclaim the expired lease while a refresh is held", func() bool {
		st, _ := ledgerStats(primary, replDC)
		return st.ActiveLeases == 0 && st.ExpiredMillis > 0
	})
	release()

	fcfg := replTestConfig("f1")
	fcfg.FollowAddr = ln.Addr().String()
	follower, err := service.New(fcfg)
	if err != nil {
		t.Fatalf("New follower: %v", err)
	}
	follower.Start()
	t.Cleanup(follower.Close)
	fleettest.WaitFor(t, "the follower to join and take a beat", func() bool {
		return follower.ReplicationStats().BeatsApplied > 0
	})

	if !follower.Promote() {
		t.Fatal("Promote on a follower returned false")
	}
	after := follower.ReplicationStats()
	if after.Connected {
		t.Error("the follower's stream is still up once Promote has returned")
	}
	// The primary keeps shipping every 25 ms: a follow iteration still running
	// would count a reconnect or apply a frame within ten intervals.
	time.Sleep(10 * pcfg.ReplInterval)
	later := follower.ReplicationStats()
	if later.Reconnects != after.Reconnects || later.SnapshotsApplied != after.SnapshotsApplied ||
		later.BeatsApplied != after.BeatsApplied || later.Connected {
		t.Errorf("a follow iteration ran after Promote returned: %d reconnects, %d snapshots, %d beats then %d, %d, %d (connected %v)",
			after.Reconnects, after.SnapshotsApplied, after.BeatsApplied,
			later.Reconnects, later.SnapshotsApplied, later.BeatsApplied, later.Connected)
	}

	follower.Close()
	primary.Close()
	fleettest.WaitFor(t, "every background goroutine to return", func() bool {
		return runtime.NumGoroutine() <= baseline
	})
}

// stepOnce steps clk and fails the test unless the job released was want's.
func stepOnce(t *testing.T, clk *fleettest.Clock, want string) {
	t.Helper()
	if got := clk.Step(); got != want {
		t.Fatalf("stepped %q, want %q", got, want)
	}
}

// TestSteppedFollowBackoffStartsOver: a follower's redials back off from
// 25 ms, doubling while its primary refuses it, and start over once a stream
// has applied a frame, so a stream that ran and then broke is redialled
// 25 ms of clock time later.
func TestSteppedFollowBackoffStartsOver(t *testing.T) {
	pcfg := replTestConfig("p1")
	pcfg.FollowAddr = "127.0.0.1:1" // a follower refuses every hello until promoted
	primary := fleettest.StartNode(t, pcfg)
	clk := fleettest.NewClock()
	fcfg := replTestConfig("f1")
	fcfg.FollowAddr = primary.ReplicateAddr
	fcfg.Clock = clk
	follower := fleettest.StartNode(t, fcfg)

	clk.Parked("f1 follow") // the first dial, at the start, was refused
	start := clk.Now()
	stepOnce(t, clk, "f1 follow")
	stepOnce(t, clk, "f1 follow")
	if waited := clk.Now().Sub(start); waited != 75*time.Millisecond {
		t.Fatalf("two refused redials took %v, want 25 ms + 50 ms", waited)
	}

	// The next redial, 100 ms on, joins: its step lasts as long as the stream.
	primary.Service.Promote()
	stepped := make(chan string)
	go func() { stepped <- clk.Step() }()
	fleettest.WaitFor(t, "the follower to apply a frame", func() bool {
		return follower.Service.ReplicationStats().SnapshotsApplied > 0
	})
	primary.Kill()
	if got := <-stepped; got != "f1 follow" {
		t.Fatalf("stepped %q, want the follow job", got)
	}
	broke := clk.Now()
	stepOnce(t, clk, "f1 follow")
	if waited := clk.Now().Sub(broke); waited != 25*time.Millisecond {
		t.Fatalf("redialled %v after a stream that applied a frame broke, want 25 ms", waited)
	}
}

// TestSteppedPromotion kills a primary under a router and steps the fleet's
// one clock past StaleAfter: the follower's beat is acknowledged with its
// election and it promotes. No step waits on wall time, and every run steps
// the same jobs in the same order.
func TestSteppedPromotion(t *testing.T) {
	runs := 100
	if testing.Short() || raceEnabled {
		runs = 3
	}
	var first []string
	for run := range runs {
		var order []string
		t.Run(strconv.Itoa(run), func(t *testing.T) { order = steppedPromotion(t) })
		if run == 0 {
			first = order
		} else if !slices.Equal(order, first) {
			t.Fatalf("run %d stepped\n%v\nrun 0 stepped\n%v", run, order, first)
		}
	}
}

// steppedPromotion runs one promotion and returns the (node, job) of every
// step, from the first to the one that promoted the follower.
func steppedPromotion(t *testing.T) []string {
	clk := fleettest.NewClock()
	rt := fleettest.StartRouter(t, router.Config{StaleAfter: time.Second, Clock: clk})
	pcfg := replTestConfig("p1")
	pcfg.Clock = clk
	primary := fleettest.StartNode(t, pcfg)
	fcfg := replTestConfig("f1")
	fcfg.FollowAddr = primary.ReplicateAddr
	fcfg.Clock = clk
	follower := fleettest.StartNode(t, fcfg)
	primary.Announce(t, rt.URL)
	follower.Announce(t, rt.URL)
	// The jobs that ran at their start wait on the clock: the announcers' first
	// beats are in, and the primary has shipped its first frame.
	clk.Parked("p1 announce "+rt.URL, "f1 announce "+rt.URL, "p1 ship f1")

	var order []string
	start := clk.Now()
	step := func() {
		name := strings.Fields(clk.Step())
		order = append(order, strings.Join(name[:min(2, len(name))], " "))
	}
	for clk.Now().Sub(start) < 100*time.Millisecond {
		step()
	}
	primary.Kill()
	clk.Parked("f1 follow") // the stream broke
	for i := 0; follower.Service.Role() != "primary"; i++ {
		if i == 200 {
			t.Fatalf("no promotion in %d steps: %v", i, order)
		}
		step()
	}
	if got := follower.Service.PrimaryID(); got != "f1" {
		t.Fatalf("promoted follower names %q its primary", got)
	}
	return order
}
