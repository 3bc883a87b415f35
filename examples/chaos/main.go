// Chaos: drive the live cluster through a seeded fault schedule — crashes,
// unreachability windows, latency spikes, transient drops — while a
// workload submits mail, then audit the E2 invariant: every accepted
// message retrieved exactly once. This is the paper's §3.1.2c "no messages
// will be lost even when some servers fail" claim, exercised on real
// goroutines with the redelivery spool doing the buffering.
//
// The soak also runs the trace audit (every committed message must show a
// complete submit→deposit→retrieve span chain) and prints the per-stage
// latency quantiles from the same obs registry. Run via `make obs-demo`.
package main

import (
	"fmt"
	"log"
	"time"

	"github.com/largemail/largemail/internal/faults"
	"github.com/largemail/largemail/internal/livenet"
	"github.com/largemail/largemail/internal/names"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	c := livenet.NewCluster()
	defer c.Close()
	for _, n := range []string{"s1", "s2", "s3"} {
		if _, err := c.AddServer(n); err != nil {
			return err
		}
	}
	// The spool turns "every server down right now" into accept-and-retry.
	if err := c.EnableSpool(livenet.SpoolConfig{
		BaseDelay: 2 * time.Millisecond, MaxDelay: 20 * time.Millisecond, Seed: 7,
	}); err != nil {
		return err
	}

	rotations := [][]string{
		{"s1", "s2", "s3"}, {"s2", "s3", "s1"}, {"s3", "s1", "s2"},
	}
	sys := faults.NewLiveSystem(c, time.Millisecond)
	for i := 0; i < 6; i++ {
		u := names.MustParse(fmt.Sprintf("R1.h%d.user%d", i%3+1, i))
		c.Directory().SetAuthority(u, rotations[i%len(rotations)])
		if err := sys.AddUser(u); err != nil {
			return err
		}
	}

	sched, err := faults.Compile(faults.Spec{
		Seed:    42,
		Ticks:   120,
		Servers: []string{"s1", "s2", "s3"},
		Links: [][2]string{
			{"net", "s1"}, {"net", "s2"}, {"net", "s3"},
		},
		DropTargets:   []string{"s1", "s2", "s3"},
		Crashes:       7,
		LinkFaults:    6,
		Latencies:     2,
		Drops:         4,
		MaxDelayTicks: 1,
	})
	if err != nil {
		return err
	}
	fmt.Printf("compiled %d fault events over %d ticks (seed %d)\n",
		len(sched.Events), sched.Horizon(), sched.Seed)

	res, err := faults.Soak(sys, faults.NewLiveTarget(c, time.Millisecond), sched, faults.SoakConfig{
		Messages: 300,
	})
	if err != nil {
		return err
	}
	fmt.Println(res.String())

	fmt.Println("cluster counters:")
	for _, k := range []string{"deposit_failovers", "deposit_retries", "injected_drops",
		"submit_spooled", "spool_redelivered", "spool_retries"} {
		fmt.Printf("  %-20s %d\n", k, c.Metrics()[k])
	}
	fmt.Println()
	fmt.Print(c.Snapshot().LatencyTable("per-stage latency (from the lifecycle tracer)", 1e6, "ms").Render())
	if !res.Ok() {
		return fmt.Errorf("invariant violated: lost=%v duplicates=%v tracegaps=%v",
			res.Lost, res.Duplicates, res.TraceGaps)
	}
	fmt.Printf("invariant held: every accepted message retrieved exactly once,\n"+
		"with a complete span chain for all %d committed messages\n", res.Committed)
	return nil
}
