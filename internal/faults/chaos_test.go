package faults_test

import (
	"reflect"
	"testing"
	"time"

	"github.com/largemail/largemail/internal/faults"
	"github.com/largemail/largemail/internal/livenet"
	"github.com/largemail/largemail/internal/loadgen"
)

// The chaos soaks: a compiled schedule of this package injected into each
// transport while internal/loadgen's engine submits and retrieves and its
// auditors hold every committed copy to exactly-once delivery, a monotone
// LastCheckingTime and a complete lifecycle trace. The drivers say what is
// safe to break (Driver.FaultSurface); the counts below ask for 26 crash/
// recover + link fail/restore events plus latency and drop windows — past
// the ≥ 20 bar the soaks are specified against.

// chaosPop is one dense region: three servers on a ring, so a cut link leaves
// every server pair a second route, and every user's authority list is all
// three of them.
var chaosPop = loadgen.Population{
	Users: 240, Regions: 1, ServersPerRegion: 3, HostsPerRegion: 4, AuthorityLen: 3,
}

func chaosSchedule(t *testing.T, drv loadgen.Driver, seed int64, latencies, maxDelay int) faults.Schedule {
	t.Helper()
	spec := drv.FaultSurface()
	spec.Seed, spec.Ticks = seed, 120
	spec.Crashes, spec.LinkFaults, spec.Latencies, spec.Drops = 7, 6, latencies, 4
	spec.MaxDelayTicks = maxDelay
	sched, err := faults.Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range sched.Events {
		switch e.Kind {
		case faults.Crash, faults.Recover, faults.LinkFail, faults.LinkRestore:
			n++
		}
	}
	if n < 20 {
		t.Fatalf("schedule has %d crash/link events, want >= 20", n)
	}
	return sched
}

func runSimSoak(t *testing.T, seed int64) (*loadgen.SimDriver, loadgen.Report) {
	t.Helper()
	drv, err := loadgen.NewSimDriver(loadgen.SimConfig{Seed: seed, Pop: chaosPop})
	if err != nil {
		t.Fatal(err)
	}
	sched := chaosSchedule(t, drv, seed, 3, 0)
	return drv, loadgen.New(drv, loadgen.Config{
		Seed: seed, Messages: 600, Ticks: 120, Schedule: &sched,
	}).Run()
}

func requireSoak(t *testing.T, rep loadgen.Report) {
	t.Helper()
	if !rep.Ok {
		t.Fatalf("invariant violated: %v\nexamples: %v", rep.Violations, rep.Examples)
	}
	if rep.Submitted < 500 {
		t.Fatalf("committed %d messages, want >= 500", rep.Submitted)
	}
}

// TestChaosSoakSim is the headline robustness check on the simulator: 600
// messages committed while servers crash, links fail, latency spikes and
// host-bound traffic is dropped; every committed copy must be retrieved
// exactly once.
func TestChaosSoakSim(t *testing.T) {
	_, rep := runSimSoak(t, 42)
	t.Logf("%d messages, %d copies, %d retrievals, %d polls, %d duplicates suppressed",
		rep.Submitted, rep.Copies, rep.Retrievals, rep.Polls, rep.Duplicates)
	requireSoak(t, rep)
}

// TestChaosSoakSimTraceAudit re-runs the sim soak and checks the trace audit
// has teeth: the tracer actually recorded span chains (at least one per
// committed message) and every committed chain is complete. A tracing
// regression that silently stopped stamping would fail here, not just show
// no trace_gap violation.
func TestChaosSoakSimTraceAudit(t *testing.T) {
	drv, rep := runSimSoak(t, 42)
	if n := rep.Violations[loadgen.ViolationTraceGap]; n != 0 {
		t.Fatalf("%d committed messages have incomplete span chains: %v", n, rep.Examples)
	}
	if n := drv.Tracer().Len(); n < rep.Submitted {
		t.Errorf("tracer holds %d traces, want >= %d committed", n, rep.Submitted)
	}
	// The per-stage histograms were fed from the same registry the tracer
	// writes to — retrieval closed lat_e2e for every delivered message.
	hs := drv.Snapshot().Histograms["lat_e2e"]
	if hs.Count == 0 {
		t.Fatal("lat_e2e histogram empty after a full soak")
	}
	if hs.P50 <= 0 || hs.P95 < hs.P50 || hs.P99 < hs.P95 {
		t.Errorf("implausible quantiles: %+v", hs)
	}
}

// TestChaosSoakSimDeterministic replays the same seed on a fresh world and
// requires an identical report: same submissions, same commits, same polls,
// same per-server deposits, same outcome.
func TestChaosSoakSimDeterministic(t *testing.T) {
	_, a := runSimSoak(t, 42)
	_, b := runSimSoak(t, 42)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different runs:\n  a=%+v\n  b=%+v", a, b)
	}
}

// TestChaosSoakSimSeeds runs a few more seeds so the invariant is not an
// artifact of one lucky schedule.
func TestChaosSoakSimSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed soak skipped in -short")
	}
	for _, seed := range []int64{1, 9, 2026} {
		if _, rep := runSimSoak(t, seed); !rep.Ok {
			t.Errorf("seed %d: %v\nexamples: %v", seed, rep.Violations, rep.Examples)
		}
	}
}

// TestChaosSoakLive runs the same engine against the live goroutine cluster:
// real time, real concurrency, the spool doing the redelivery work. A nil
// Submit error is the commit point (deposited or spooled); the auditors then
// require exactly-once retrieval and a complete trace for every message.
func TestChaosSoakLive(t *testing.T) {
	drv, err := loadgen.NewLiveDriver(loadgen.LiveConfig{
		Pop:  chaosPop,
		Tick: time.Millisecond,
		Spool: livenet.SpoolConfig{
			BaseDelay: 2 * time.Millisecond,
			MaxDelay:  20 * time.Millisecond,
			Seed:      7,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer drv.Close()
	sched := chaosSchedule(t, drv, 42, 2, 1)
	rep := loadgen.New(drv, loadgen.Config{
		Seed: 42, Messages: 520, Ticks: 120, Schedule: &sched,
	}).Run()
	t.Logf("%d messages, %d copies, %d retrievals, %d polls", rep.Submitted, rep.Copies, rep.Retrievals, rep.Polls)
	requireSoak(t, rep)
	// The trace audit ran against real spans: the cluster's tracer stamped
	// every committed message even across crash/recover windows, and the
	// same registry carries the per-stage latency distributions.
	if n := drv.Tracer().Len(); n < rep.Submitted {
		t.Errorf("tracer holds %d traces, want >= %d committed", n, rep.Submitted)
	}
	snap := drv.Snapshot()
	if snap.Histograms["lat_e2e"].Count == 0 {
		t.Error("lat_e2e histogram empty after live soak")
	}
	if snap.Counters["spool_redelivered"] == 0 && snap.Counters["deposit_failovers"] == 0 {
		t.Log("note: schedule exercised neither spool nor failover paths")
	}
}
