package loadgen

import (
	"testing"

	"github.com/largemail/largemail/internal/faults"
	"github.com/largemail/largemail/internal/sim"
)

// TestBatchNoLossUnderFaults runs the batched relay fabric through the same
// chaos profile the capacity harness uses — crashes, link failures, injected
// latency, host drops — and requires the exactly-once/no-loss auditors to
// stay clean. It pins the two send-time guarantees the batch path must
// preserve under availability churn:
//
//   - a staged item whose first-active authority server changed while it
//     waited is redirected at flush time, never shipped to a secondary the
//     recipient's §3.1.2c walk would not check behind a healthy primary;
//   - a Recovered re-drive (crash recovery or link restore) restarts each
//     transfer's candidate walk at the head of the list instead of resuming
//     mid-rotation.
//
// Both bugs manifested as unread mail stranded at secondary servers exactly
// here, at BatchSize=16 under this schedule, before the fixes.
func TestBatchNoLossUnderFaults(t *testing.T) {
	drv, err := NewSimDriver(SimConfig{
		Seed: 1,
		Pop: Population{
			Users:            20000,
			Regions:          4,
			ServersPerRegion: 4,
		},
		BatchSize:     16,
		FlushInterval: 60 * sim.Unit,
		RetryTimeout:  96 * sim.Unit,
	})
	if err != nil {
		t.Fatal(err)
	}
	spec := drv.FaultSurface()
	spec.Seed = 1
	spec.Ticks = 120
	spec.Crashes = len(spec.Servers)/8 + 2
	spec.Latencies = len(spec.Servers)/16 + 1
	spec.LinkFaults = 2
	spec.Drops = 2
	sched, err := faults.Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	rep := New(drv, Config{
		Seed: 1, Messages: 5000, Sessions: 512, Ticks: 120,
		Workload: Workload{LocalBias: 0.2},
		Schedule: &sched,
	}).Run()
	if !rep.Ok {
		t.Fatalf("auditors flagged violations under faults: %v\nexamples: %v",
			rep.Violations, rep.Examples)
	}
	for _, id := range drv.fab.Servers() {
		if n := drv.fab.Lookup(id).PendingTransfers(); n > 0 {
			t.Errorf("server %v: %d transfers stranded in the pending ledger", id, n)
		}
	}
	snap := drv.Snapshot()
	env, out := snap.Counters["srv_relay_envelopes"], snap.Counters["srv_transfers_out"]
	if env == 0 || env >= out {
		t.Errorf("relay_envelopes = %d vs transfers_out = %d; batching not exercised", env, out)
	}
}
