package loadgen

import (
	"testing"
	"time"

	"github.com/largemail/largemail/internal/faults"
	"github.com/largemail/largemail/internal/sim"
)

// countKind returns how many events of kind k a schedule carries.
func countKind(sched faults.Schedule, k faults.Kind) int {
	n := 0
	for _, e := range sched.Events {
		if e.Kind == k {
			n++
		}
	}
	return n
}

// TestSimNoLossUnderKillRestart runs the simulated transport with durable
// stores through a schedule of kill-restart windows (process death: the
// network node goes down AND in-memory mailbox state is destroyed) mixed
// with host drops, and requires the exactly-once/no-loss auditors to stay
// clean. Every message that survives a Kill does so because the WAL replay
// rebuilt its mailbox — the memory-only control (TestKillRestartLosesMailWithoutDurability)
// shows the same schedule losing mail when the stores cannot recover.
func TestSimNoLossUnderKillRestart(t *testing.T) {
	drv, err := NewSimDriver(SimConfig{
		Seed: 7,
		Pop: Population{
			Users:            20000,
			Regions:          2,
			ServersPerRegion: 4,
		},
		RetryTimeout: 96 * sim.Unit,
		DataDir:      t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer drv.Close()
	spec := drv.FaultSurface()
	if len(spec.KillTargets) == 0 {
		t.Fatal("durable sim driver offered no KillTargets")
	}
	spec.Seed = 7
	spec.Ticks = 120
	spec.KillRestarts = 3
	spec.Drops = 2
	sched, err := faults.Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	if countKind(sched, faults.Kill) != 3 || countKind(sched, faults.Restart) != 3 {
		t.Fatalf("schedule kills/restarts = %d/%d, want 3/3",
			countKind(sched, faults.Kill), countKind(sched, faults.Restart))
	}
	rep := New(drv, Config{
		Seed: 7, Messages: 3000, Sessions: 256, Ticks: 120,
		Workload: Workload{LocalBias: 0.3},
		Schedule: &sched,
	}).Run()
	if !rep.Ok {
		t.Fatalf("auditors flagged violations under kill-restart: %v\nexamples: %v",
			rep.Violations, rep.Examples)
	}
	st, ok := drv.DurabilityStats()
	if !ok || st.Appends == 0 {
		t.Fatalf("WAL not exercised: stats = %+v ok = %v", st, ok)
	}
	for _, id := range drv.fab.Servers() {
		if n := drv.fab.Lookup(id).PendingTransfers(); n > 0 {
			t.Errorf("server %v: %d transfers stranded in the pending ledger", id, n)
		}
	}
}

// TestSimMemoryFaultSurfaceHasNoKillTargets: without DataDir the fault
// surface must not offer kill-restart — killing a memory server is data
// loss by construction, and a schedule that drew such a window would turn
// a chaos soak into a guaranteed auditor failure.
func TestSimMemoryFaultSurfaceHasNoKillTargets(t *testing.T) {
	drv, err := NewSimDriver(SimConfig{
		Seed: 1,
		Pop:  Population{Users: 400, Regions: 1, ServersPerRegion: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if kt := drv.FaultSurface().KillTargets; len(kt) != 0 {
		t.Fatalf("memory driver offered KillTargets %v", kt)
	}
	if _, ok := drv.DurabilityStats(); ok {
		t.Fatal("memory driver reported durability stats")
	}
}

// TestLiveNoLossUnderKillRestartNoSpool is the tentpole soak: the live
// transport with the redelivery spool DISABLED, so nothing re-drives a
// failed deposit later — the only way a committed message survives a
// kill-restart is the durable store recovering it. MaxRecipients is 1
// because without the spool a multi-recipient Submit can partially commit
// while reporting an error, which would poison the no-loss ledger.
func TestLiveNoLossUnderKillRestartNoSpool(t *testing.T) {
	drv, err := NewLiveDriver(LiveConfig{
		Pop: Population{
			Users:            2000,
			Regions:          2,
			ServersPerRegion: 3,
		},
		Tick:    time.Millisecond,
		NoSpool: true,
		DataDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer drv.Close()
	spec := drv.FaultSurface()
	if len(spec.KillTargets) == 0 {
		t.Fatal("durable live driver offered no KillTargets")
	}
	spec.Seed = 3
	spec.Ticks = 100
	spec.KillRestarts = 4
	sched, err := faults.Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	rep := New(drv, Config{
		Seed: 3, Messages: 400, Sessions: 64, Ticks: 100,
		Workload: Workload{LocalBias: 0.3, MaxRecipients: 1},
		Schedule: &sched,
	}).Run()
	if !rep.Ok {
		t.Fatalf("auditors flagged violations under no-spool kill-restart: %v\nexamples: %v",
			rep.Violations, rep.Examples)
	}
	m := drv.Cluster().Metrics()
	if m["kills"] == 0 || m["kills"] != m["restarts"] {
		t.Fatalf("kills=%d restarts=%d; schedule did not exercise kill-restart",
			m["kills"], m["restarts"])
	}
	st, ok := drv.DurabilityStats()
	if !ok || st.Appends == 0 {
		t.Fatalf("WAL not exercised: stats = %+v ok = %v", st, ok)
	}
}

// TestKillRestartLosesMailWithoutDurability is the negative control for the
// soak pair: the SAME no-spool live configuration minus DataDir, driven
// with a deterministic kill window over every server while traffic is in
// flight, must lose mail. If this ever passes cleanly, the durable soak
// above is proving nothing (some other layer is resurrecting the mail).
func TestKillRestartLosesMailWithoutDurability(t *testing.T) {
	drv, err := NewLiveDriver(LiveConfig{
		Pop: Population{
			Users:            200,
			Regions:          1,
			ServersPerRegion: 2,
		},
		Tick:    time.Millisecond,
		NoSpool: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer drv.Close()
	if kt := drv.FaultSurface().KillTargets; len(kt) != 0 {
		t.Fatalf("memory live driver offered KillTargets %v", kt)
	}
	// Submit a burst, then kill-restart every server by hand (the fault
	// surface rightly refuses to schedule this) before anyone retrieves.
	submitted := 0
	for u := 0; u < 40; u++ {
		if _, err := drv.Submit(u, []int{(u + 1) % 200}, "s", "doomed"); err == nil {
			submitted++
		}
	}
	if submitted == 0 {
		t.Fatal("no messages committed")
	}
	for _, name := range drv.Cluster().ServerNames() {
		if err := drv.Cluster().KillServer(name); err != nil {
			t.Fatal(err)
		}
		if err := drv.Cluster().RestartServer(name); err != nil {
			t.Fatal(err)
		}
	}
	got := 0
	for u := 0; u < 200; u++ {
		got += len(drv.Retrieve(u).IDs)
	}
	if got != 0 {
		t.Fatalf("memory cluster recovered %d of %d messages after kill-restart, want 0", got, submitted)
	}
}
