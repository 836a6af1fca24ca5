package service_test

import (
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"harvest/internal/core"
	"harvest/internal/fleettest"
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
		st, _ := primary.LedgerStats(replDC)
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
