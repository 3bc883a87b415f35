// Chaos: drive the live cluster through a seeded fault schedule — crashes,
// unreachability windows, latency spikes, transient drops — while the
// workload engine submits and retrieves mail, then report what its auditors
// found: every accepted copy retrieved exactly once. This is the paper's
// §3.1.2c "no messages will be lost even when some servers fail" claim,
// exercised on real goroutines with the redelivery spool doing the buffering.
//
// The auditors also run the trace audit (every committed message must show a
// complete submit→deposit→retrieve span chain); the per-stage latency
// quantiles printed at the end come from the same obs registry. Run via
// `make obs-demo`; `mailbench -transport livenet -faults` is the same harness
// at capacity-test scale.
package main

import (
	"fmt"
	"log"
	"time"

	"github.com/largemail/largemail/internal/faults"
	"github.com/largemail/largemail/internal/livenet"
	"github.com/largemail/largemail/internal/loadgen"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// One region, three servers, every user's authority list all three. The
	// spool turns "every server down right now" into accept-and-retry.
	drv, err := loadgen.NewLiveDriver(loadgen.LiveConfig{
		Pop: loadgen.Population{
			Users: 240, Regions: 1, ServersPerRegion: 3, HostsPerRegion: 4, AuthorityLen: 3,
		},
		Tick:  time.Millisecond,
		Spool: livenet.SpoolConfig{BaseDelay: 2 * time.Millisecond, MaxDelay: 20 * time.Millisecond, Seed: 7},
	})
	if err != nil {
		return err
	}
	defer drv.Close()

	// The driver knows what is safe to break on its transport; the counts,
	// the seed and the horizon are ours.
	spec := drv.FaultSurface()
	spec.Seed, spec.Ticks = 42, 120
	spec.Crashes, spec.LinkFaults, spec.Latencies, spec.Drops = 7, 6, 2, 4
	spec.MaxDelayTicks = 1
	sched, err := faults.Compile(spec)
	if err != nil {
		return err
	}
	fmt.Printf("compiled %d fault events over %d ticks (seed %d)\n",
		len(sched.Events), sched.Horizon(), sched.Seed)

	rep := loadgen.New(drv, loadgen.Config{
		Seed: 42, Messages: 300, Ticks: 120, Schedule: &sched,
	}).Run()
	fmt.Printf("soak: %d messages committed (%d copies), %d retrievals, %d polls, %d duplicates suppressed\n",
		rep.Submitted, rep.Copies, rep.Retrievals, rep.Polls, rep.Duplicates)

	snap := drv.Snapshot()
	fmt.Println("cluster counters:")
	for _, k := range []string{"deposit_failovers", "deposit_retries", "injected_drops",
		"submit_spooled", "spool_redelivered", "spool_retries"} {
		fmt.Printf("  %-20s %d\n", k, snap.Counters[k])
	}
	fmt.Println()
	fmt.Print(snap.LatencyTable("per-stage latency (from the lifecycle tracer)", 1e6, "ms").Render())
	if !rep.Ok {
		return fmt.Errorf("invariant violated: %v\nexamples: %v", rep.Violations, rep.Examples)
	}
	fmt.Printf("invariant held: every accepted copy retrieved exactly once,\n"+
		"with a complete span chain for all %d committed messages\n", rep.Submitted)
	return nil
}
