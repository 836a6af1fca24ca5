package main

import (
	"fmt"

	"harvest/internal/blockledger"
)

// leaseBooks is the allocation ledger's exact-integer section of a node's
// /metrics.
type leaseBooks struct {
	ActiveLeases      int    `json:"active_leases"`
	OutstandingMillis int64  `json:"outstanding_millis"`
	ReservedMillis    int64  `json:"reserved_millis"`
	ReleasedMillis    int64  `json:"released_millis"`
	ExpiredMillis     int64  `json:"expired_millis"`
	ForfeitedMillis   int64  `json:"forfeited_millis"`
	Reserves          uint64 `json:"reserves"`
	Releases          uint64 `json:"releases"`
	Renews            uint64 `json:"renews"`
}

// dcBooks is what the correctness gate reads of one datacenter from a node's
// public /metrics.
type dcBooks struct {
	Generation     uint64            `json:"generation"`
	Refreshes      uint64            `json:"refreshes"`
	RefreshErrors  uint64            `json:"refresh_errors"`
	PersistErrors  uint64            `json:"persist_errors"`
	RepairFailures uint64            `json:"repair_failures"`
	Ledger         leaseBooks        `json:"ledger"`
	Blocks         blockledger.Stats `json:"blocks"`
}

// nodeMetrics is the slice of a harvestd /metrics document the harness reads.
type nodeMetrics struct {
	Replication struct {
		Role          string `json:"role"`
		Followers     int    `json:"followers"`
		FramesShipped uint64 `json:"frames_shipped"`
		ShipErrors    uint64 `json:"ship_errors"`
	} `json:"replication"`
	Datacenters map[string]dcBooks `json:"datacenters"`
}

func fetchBooks(baseURL, dc string) (dcBooks, error) {
	var m nodeMetrics
	if err := getJSON(baseURL+"/metrics", &m); err != nil {
		return dcBooks{}, err
	}
	b, ok := m.Datacenters[dc]
	if !ok {
		return dcBooks{}, fmt.Errorf("%s/metrics has no datacenter %s", baseURL, dc)
	}
	return b, nil
}

// conserved checks the two conservation equations, exactly:
//
//	reserved == released + expired + forfeited + outstanding   (millicores)
//	placed + pending == replica_slots, lost == replaced + pending
func (b dcBooks) conserved() error {
	l := b.Ledger
	if l.ReservedMillis != l.ReleasedMillis+l.ExpiredMillis+l.ForfeitedMillis+l.OutstandingMillis {
		return fmt.Errorf("lease books do not balance: reserved %d != released %d + expired %d + forfeited %d + outstanding %d",
			l.ReservedMillis, l.ReleasedMillis, l.ExpiredMillis, l.ForfeitedMillis, l.OutstandingMillis)
	}
	k := b.Blocks
	if k.Placed+k.Pending != k.ReplicaSlots {
		return fmt.Errorf("block books do not balance: placed %d + pending %d != replica_slots %d", k.Placed, k.Pending, k.ReplicaSlots)
	}
	if k.Lost != k.Replaced+k.Pending {
		return fmt.Errorf("block books do not balance: lost %d != replaced %d + pending %d", k.Lost, k.Replaced, k.Pending)
	}
	return nil
}

// drained checks that nothing is left outstanding once the workload has
// released every lease it took.
func (b dcBooks) drained() error {
	if b.Ledger.ActiveLeases != 0 || b.Ledger.OutstandingMillis != 0 {
		return fmt.Errorf("leases left after drain: %d active, %d millicores outstanding", b.Ledger.ActiveLeases, b.Ledger.OutstandingMillis)
	}
	return nil
}

// repaired checks that no block is below its replication factor.
func (b dcBooks) repaired() error {
	if b.Blocks.Pending != 0 || b.Blocks.RepairQueue != 0 {
		return fmt.Errorf("blocks below R: %d replicas pending, %d queued", b.Blocks.Pending, b.Blocks.RepairQueue)
	}
	return nil
}

// sameState compares the state a restart must preserve: the lease books and
// the block books. Generation and the refresh counters legitimately move on.
func (b dcBooks) sameState(o dcBooks) error {
	if b.Ledger != o.Ledger {
		return fmt.Errorf("lease books changed across restart: %+v, then %+v", b.Ledger, o.Ledger)
	}
	x, y := b.Blocks, o.Blocks
	x.Generation, y.Generation = 0, 0
	x.StaleRetries, y.StaleRetries = 0, 0 // a process-lifetime counter, not persisted state
	if x != y {
		return fmt.Errorf("block books changed across restart: %+v, then %+v", x, y)
	}
	return nil
}
