// Command mailbench runs the internal/loadgen closed-loop workload engine
// as a capacity harness: one population × server-count point per invocation,
// on any transport, auditing the paper's invariants online (exactly-once
// deposit, no loss under faults, monotone LastCheckingTime, the §3.1.2c
// ≈1-poll guarantee). It reports per-stage latency quantiles from the obs
// snapshot, compares the §3.1.1 assignment's predicted utilization and
// Q(ρ)=ρ/(1−ρ) waits against the deposits each server actually served, and
// ends with the auditors' verdict. The repository's benchmark is bench/, not
// this command.
//
// Typical runs:
//
//	go run ./cmd/mailbench -transport netsim -users 1000000 -servers 64 -seed 1
//	go run ./cmd/mailbench -transport netsim -users 1000000 -servers 64 -seed 1 -faults
//	go run ./cmd/mailbench -transport livenet -users 2000 -servers 8
//	go run ./cmd/mailbench -transport wire -users 20000 -servers 8
//	go run ./cmd/mailbench -users 1000000 -servers 64 -datadir /tmp/mb -fsync always -faults
//	go run ./cmd/mailbench -arch roaming -users 1000000 -servers 64 -messages 6000 -ticks 300 -sessions 256
//	go run ./cmd/mailbench -arch attr -users 1000000 -servers 64 -ticks 300 -queries 60 -faults
//
// A sweep is a shell loop over invocations, which gives every point a process
// of its own:
//
//	for pol in static jsq rebalance; do
//		go run ./cmd/mailbench -users 1000000 -servers 64 -policy $pol -profile hotspot
//	done
//
// -arch selects the paper architecture under test: syntax (default, the
// §3.1 engine above), roaming (the §3.2 location-independent scenario with
// live rehash reconfiguration and the §3.2.2c overhead auditor), or attr
// (the §3.3 attribute mass-distribution scenario: predicate broadcasts down
// the back-bone MST, convergecast aggregation, loss/bound/partial auditors).
//
// With -datadir every server journals its mailbox store under a per-point
// subdirectory and the run reports WAL append throughput; -faults on a
// durable run adds kill-restart windows (process death, restart from disk)
// to the chaos mix. Cold recovery time is bench/'s wire_ingest recovery_s.
//
// The exit status is non-zero when the run finishes with auditor
// violations, so the harness doubles as a correctness gate.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"github.com/largemail/largemail/internal/faults"
	"github.com/largemail/largemail/internal/loadgen"
	"github.com/largemail/largemail/internal/mail/mailstore"
	"github.com/largemail/largemail/internal/obs"
	"github.com/largemail/largemail/internal/placement"
	"github.com/largemail/largemail/internal/sim"
)

// params is one point: what the flags said.
type params struct {
	transport string
	users     int
	servers   int
	regions   int
	seed      int64
	messages  int
	sessions  int
	ticks     int
	faults    bool
	batch     int     // relay batch size (0 = unbatched classic path)
	flush     int     // relay flush interval, sim units
	retry     int     // floor of the ack timer, sim units (0 = server default)
	localBias float64 // 0 = workload default
	datadir   string  // durable store root ("" = memory stores)
	fsync     mailstore.FsyncMode

	policy  string          // placement policy ("" = not asked for: static, and no balance report)
	jsqd    int             // JSQ(d) sample width
	profile loadgen.Profile // workload shape (hotspot/diurnal/flash)
	profStr string          // the -profile flag value, for labels
	srate   float64         // per-server service rate, deposits/tick (0 = auto with -policy)

	arch    string // architecture: syntax (§3.1), roaming (§3.2), attr (§3.3)
	queries int    // mass-distribution queries (-arch attr; 0 = scenario default)

	noprune       bool // -arch attr: disable sketch pruning (exhaustive baseline)
	sketchRefresh int  // -arch attr: periodic sketch refresh cadence in ticks (0 = on demand)
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// run is main with its inputs as parameters: it runs the one point args
// describe, reports on stdout, and returns the exit status (2 for a bad
// command line, 1 for a failed or violating run).
func run(args []string, stdout io.Writer) int {
	var p params
	fs := flag.NewFlagSet("mailbench", flag.ContinueOnError)
	fs.StringVar(&p.transport, "transport", "netsim", "netsim (event time), livenet (wall clock), or wire (TCP protocol path)")
	fs.IntVar(&p.users, "users", 10000, "population size")
	fs.IntVar(&p.servers, "servers", 8, "total server count")
	fs.IntVar(&p.regions, "regions", 4, "regions to spread servers across")
	fs.Int64Var(&p.seed, "seed", 1, "workload and fault-schedule seed")
	fs.IntVar(&p.messages, "messages", 5000, "message budget per run")
	fs.IntVar(&p.sessions, "sessions", 512, "concurrent closed-loop user sessions")
	fs.IntVar(&p.ticks, "ticks", 120, "minimum run horizon in schedule ticks")
	fs.BoolVar(&p.faults, "faults", false, "inject a compiled crash/link/latency/drop schedule")
	fs.IntVar(&p.batch, "batch", 0, "relay batch size (netsim only; 0 = unbatched)")
	fs.IntVar(&p.flush, "flush", 20, "relay batch flush interval in sim units (with -batch)")
	fs.IntVar(&p.retry, "retry", 0, "floor of the transfer ack timer in sim units, which is otherwise the route's round trip plus 2 (0 = server default, 8)")
	fs.Float64Var(&p.localBias, "localbias", 0, "probability a recipient is region-local (0 = workload default 0.8)")
	fs.StringVar(&p.datadir, "datadir", "", "durable store root; the point journals under its own subdirectory and reports WAL throughput")
	fsyncFlag := fs.String("fsync", "never", "WAL fsync policy with -datadir: never|always")
	policyFlag := fs.String("policy", "", "placement policy: static, jsq or rebalance (empty = static, without the balance report and the derived -srate)")
	fs.IntVar(&p.jsqd, "d", 2, "JSQ(d) sample width (with -policy jsq)")
	fs.StringVar(&p.profStr, "profile", "", "workload profile: hotspot[:hosts[:frac%]], diurnal[:period], flash[:start:len] (empty = uniform)")
	fs.Float64Var(&p.srate, "srate", 0, "per-server service rate in deposits/tick for the congestion model (0 = derived from the message budget when -policy is set)")
	fs.StringVar(&p.arch, "arch", "syntax", "architecture under test: syntax (§3.1 name-routed), roaming (§3.2 location-independent), attr (§3.3 attribute broadcast)")
	fs.IntVar(&p.queries, "queries", 0, "mass-distribution queries per run (0 = scenario default; -arch attr only)")
	fs.BoolVar(&p.noprune, "noprune", false, "disable sketch pruning of content queries — the exhaustive E21 baseline (-arch attr only)")
	fs.IntVar(&p.sketchRefresh, "sketchrefresh", 0, "refresh subtree sketches every N ticks instead of before each pruned launch; leaves stale windows that must fail open (-arch attr only)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(os.Stderr, "mailbench: "+format+"\n", a...)
		return 2
	}

	switch p.arch {
	case "syntax", "roaming", "attr":
	default:
		return usage("-arch: unknown architecture %q", p.arch)
	}
	if p.arch != "attr" && (p.noprune || p.sketchRefresh != 0) {
		return usage("-noprune/-sketchrefresh require -arch attr")
	}
	if p.arch != "syntax" {
		// The roaming and attr scenarios run on their own netsim worlds;
		// the syntax-only knobs have no meaning there.
		if p.transport != "netsim" {
			return usage("-arch %s requires -transport netsim", p.arch)
		}
		for flagName, set := range map[string]bool{
			"-policy": *policyFlag != "", "-batch": p.batch != 0,
			"-datadir": p.datadir != "", "-profile": p.profStr != "",
		} {
			if set {
				return usage("%s is not supported with -arch %s", flagName, p.arch)
			}
		}
	}
	var err error
	if p.profile, err = loadgen.ParseProfile(p.profStr); err != nil {
		return usage("-profile: %v", err)
	}
	if *policyFlag != "" {
		if p.policy, err = placement.ParseName(*policyFlag); err != nil {
			return usage("-policy: %v", err)
		}
	}
	if p.fsync, err = mailstore.ParseFsyncMode(*fsyncFlag); err != nil {
		return usage("-fsync: %v", err)
	}
	switch p.transport {
	case "netsim", "livenet":
	case "wire":
		if p.datadir != "" {
			return usage("-datadir is not supported with -transport wire")
		}
		if p.policy != "" {
			return usage("-policy is not supported with -transport wire")
		}
	default:
		return usage("unknown transport %q", p.transport)
	}
	if p.users <= 0 || p.servers <= 0 || p.batch < 0 {
		return usage("-users and -servers must be positive, -batch not negative")
	}
	if p.batch > 0 && p.transport != "netsim" {
		return usage("-batch requires -transport netsim")
	}

	var violations int
	switch p.arch {
	case "roaming":
		violations, err = runRoaming(p, stdout)
	case "attr":
		violations, err = runAttr(p, stdout)
	default:
		violations, err = runSyntax(p, stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mailbench:", err)
		return 1
	}
	if violations > 0 {
		fmt.Fprintf(os.Stderr, "mailbench: %d auditor violations\n", violations)
		return 1
	}
	return 0
}

// population derives the regional layout for the point: servers spread
// across min(regions, servers) regions, trimming to an even split.
func population(p params) loadgen.Population {
	regions := p.regions
	if regions > p.servers {
		regions = p.servers
	}
	if regions < 1 {
		regions = 1
	}
	spr := p.servers / regions
	if spr*regions != p.servers {
		fmt.Fprintf(os.Stderr, "mailbench: %d servers do not split across %d regions; using %d\n",
			p.servers, regions, spr*regions)
	}
	return loadgen.Population{
		Users:            p.users,
		Regions:          regions,
		ServersPerRegion: spr,
	}
}

// compileChaos scales a standard chaos mix to the deployment size, using only
// the driver's (or the attr scenario's) safe fault surface. A durable driver
// additionally offers KillTargets; Compile requires the crash and kill pools
// to be disjoint (a Recover landing between a Kill and its Restart would
// revive a node whose store is torn down), so the fleet is split: the first
// half crashes, the second half kill-restarts from disk.
func compileChaos(spec faults.Spec, p params) (*faults.Schedule, error) {
	spec.Seed = p.seed
	spec.Ticks = p.ticks
	if len(spec.KillTargets) > 0 && len(spec.Servers) >= 2 {
		half := len(spec.Servers) / 2
		spec.KillTargets = append([]string(nil), spec.Servers[half:]...)
		spec.Servers = spec.Servers[:half]
		spec.KillRestarts = len(spec.KillTargets)/8 + 2
	}
	spec.Crashes = len(spec.Servers)/8 + 2
	spec.Latencies = len(spec.Servers)/16 + 1
	if len(spec.Links) > 0 {
		spec.LinkFaults = 2
	}
	if len(spec.DropTargets) > 0 {
		spec.Drops = 2
	}
	sched, err := faults.Compile(spec)
	if err != nil {
		return nil, fmt.Errorf("compile fault schedule: %w", err)
	}
	return &sched, nil
}

// runDataDir gives each point its own durable root under -datadir: the points
// of a sweep differ in shard layout and server count, and a reused directory
// would either conflict on the manifest or replay a previous point's mail.
func runDataDir(p params) string {
	if p.datadir == "" {
		return ""
	}
	dir := fmt.Sprintf("%s_u%d_s%d_b%d_seed%d_fsync-%s_faults-%v",
		p.transport, p.users, p.servers, p.batch, p.seed, p.fsync, p.faults)
	if p.policy != "" {
		dir += "_policy-" + p.policy
	}
	return filepath.Join(p.datadir, dir)
}

// autoServiceRate derives a per-server deposit service rate from the run's
// message budget when -srate is unset: roughly twice the fleet-wide mean
// arrival rate, so a balanced run sits near ρ≈0.5 and only genuinely skewed
// servers saturate. The recipient draw averages ~1.6 copies per message.
func autoServiceRate(p params) float64 {
	rate := 2.0 * 1.6 * float64(p.messages) / (float64(p.ticks) * float64(p.servers))
	if rate < 0.5 {
		rate = 0.5
	}
	return rate
}

// runSyntax executes one §3.1 point and renders its report.
func runSyntax(p params, w io.Writer) (int, error) {
	pop := population(p)
	dataDir := runDataDir(p)
	var (
		drv   loadgen.Driver
		close func()
		scale float64
		unit  string
	)
	srate := p.srate
	if p.policy != "" && srate == 0 {
		srate = autoServiceRate(p)
	}
	switch p.transport {
	case "wire":
		d, err := loadgen.NewWireDriver(loadgen.WireConfig{Pop: pop})
		if err != nil {
			return 0, err
		}
		drv, close = d, d.Close
		scale, unit = 1e6, "ms"
	case "netsim":
		d, err := loadgen.NewSimDriver(loadgen.SimConfig{
			Seed: p.seed, Pop: pop,
			BatchSize:     p.batch,
			FlushInterval: sim.Time(p.flush) * sim.Unit,
			RetryTimeout:  sim.Time(p.retry) * sim.Unit,
			DataDir:       dataDir, Fsync: p.fsync,
			Policy: p.policy, JSQD: p.jsqd, ServiceRate: srate,
		})
		if err != nil {
			return 0, err
		}
		drv, close = d, func() { _ = d.Close() }
		scale, unit = float64(sim.Unit), "units"
	default:
		d, err := loadgen.NewLiveDriver(loadgen.LiveConfig{
			Pop:     pop,
			DataDir: dataDir, Fsync: p.fsync,
			Policy: p.policy, JSQD: p.jsqd, ServiceRate: srate,
		})
		if err != nil {
			return 0, err
		}
		drv, close = d, d.Close
		scale, unit = 1e6, "ms"
	}
	defer close()

	cfg := loadgen.Config{
		Seed: p.seed, Messages: p.messages, Sessions: p.sessions, Ticks: p.ticks,
		Workload: loadgen.Workload{LocalBias: p.localBias},
		Profile:  p.profile,
	}
	if p.faults {
		sched, err := compileChaos(drv.FaultSurface(), p)
		if err != nil {
			return 0, err
		}
		cfg.Schedule = sched
	}

	label := fmt.Sprintf("%s users=%d servers=%d faults=%v seed=%d",
		p.transport, p.users, p.servers, p.faults, p.seed)
	if p.batch > 0 {
		label += fmt.Sprintf(" batch=%d flush=%d", p.batch, p.flush)
	}
	if dataDir != "" {
		label += " durable fsync=" + p.fsync.String()
	}
	if p.policy != "" {
		label += " policy=" + p.policy
		if p.policy == placement.NameJSQ {
			label += fmt.Sprintf(" d=%d", p.jsqd)
		}
		label += fmt.Sprintf(" srate=%.2f", srate)
	}
	if p.profStr != "" {
		label += " profile=" + p.profStr
	}
	fmt.Fprintf(w, "=== %s\n", label)
	start := time.Now()
	rep := loadgen.New(drv, cfg).Run()
	elapsed := time.Since(start)

	fmt.Fprintf(w, "submitted %d messages (%d copies) in %d ticks, %d retrievals, "+
		"%d polls, %d dup-suppressed — %s wall\n",
		rep.Submitted, rep.Copies, rep.Ticks, rep.Retrievals, rep.Polls,
		rep.Duplicates, elapsed.Round(time.Millisecond))

	snap := drv.Snapshot()
	fmt.Fprint(w, snap.LatencyTable("stage latency", scale, unit).Render())
	printUtilization(w, rep.Loads)
	if env := counterSum(snap, "relay_envelopes"); env > 0 {
		xfers := counterSum(snap, "transfers_out")
		fmt.Fprintf(w, "relay: %.0f envelopes carried %.0f transfers (%.1f msgs/envelope), %.0f splits\n",
			env, xfers, xfers/env, counterSum(snap, "batch_splits"))
	}
	if p.policy != "" {
		// The migration counters live un-prefixed in the driver registry, not
		// under a per-server name — read them directly.
		rhoMean, rhoMax := rhoGaugeStats(snap)
		fmt.Fprintf(w, "balance: policy=%s, %d migrations moved %.0f messages, "+
			"%.0f deposits rerouted (%.0f loop-dropped), observed ρ mean %.3f max %.3f\n",
			p.policy, snap.Counters["migrations_total"],
			float64(snap.Counters["migration_cost"]),
			counterSum(snap, "deposit_reroutes"), counterSum(snap, "reroute_loops_dropped"),
			rhoMean, rhoMax)
	}

	bad := reportAudit(w, rep.Ok, rep.Violations, rep.Examples,
		"auditors: clean (exactly-once, no-loss, monotone LCT, poll efficiency)")

	if ds, ok := drv.(interface {
		DurabilityStats() (mailstore.WALStats, bool)
	}); ok {
		if ws, on := ds.DurabilityStats(); on {
			mbps := 0.0
			if ws.AppendNs > 0 {
				mbps = float64(ws.Bytes) * 1e3 / float64(ws.AppendNs)
			}
			fmt.Fprintf(w, "wal: %d appends, %.1f MB, %.1f MB/s append path, %d syncs, %d rotations, %d compactions\n",
				ws.Appends, float64(ws.Bytes)/1e6, mbps, ws.Syncs, ws.Rotations, ws.Compactions)
			// A latched store keeps accepting deposits it never journals:
			// the run's durability claim does not hold.
			if ws.Latched > 0 {
				fmt.Fprintf(w, "VIOLATION wal_latched: %d\n", ws.Latched)
				bad += int(ws.Latched)
			}
		}
	}
	return bad, nil
}

// runRoaming executes one §3.2 point: the locind-backed RoamDriver
// under the closed-loop engine, with roam waves and live rehash
// reconfiguration layered on top and the §3.2.2c overhead auditor online.
func runRoaming(p params, w io.Writer) (int, error) {
	pop := population(p)
	drv, err := loadgen.NewRoamDriver(loadgen.RoamConfig{Seed: p.seed, Pop: pop})
	if err != nil {
		return 0, err
	}
	cfg := loadgen.Config{
		Seed: p.seed, Messages: p.messages, Sessions: p.sessions, Ticks: p.ticks,
	}
	if p.faults {
		sched, err := compileChaos(drv.FaultSurface(), p)
		if err != nil {
			return 0, err
		}
		cfg.Schedule = sched
	}

	fmt.Fprintf(w, "=== roaming users=%d servers=%d faults=%v seed=%d\n",
		p.users, p.servers, p.faults, p.seed)
	start := time.Now()
	// RehashEvery 7 keeps the live rehash off-phase with the engine's
	// retrieval sweep (period 4), so reconfiguration hits loaded mailboxes.
	rep := loadgen.RunRoamScenario(drv, cfg, loadgen.RoamScenarioConfig{
		Seed:        p.seed,
		RehashEvery: 7,
	})
	elapsed := time.Since(start)

	fmt.Fprintf(w, "submitted %d messages (%d copies) in %d ticks, %d retrievals, "+
		"%d polls, %d dup-suppressed — %s wall\n",
		rep.Submitted, rep.Copies, rep.Ticks, rep.Retrievals, rep.Polls,
		rep.Duplicates, elapsed.Round(time.Millisecond))

	snap := drv.Snapshot()
	fmt.Fprint(w, snap.LatencyTable("stage latency", float64(sim.Unit), "units").Render())
	printUtilization(w, rep.Loads)
	fmt.Fprintf(w, "roaming: %d logins, %d consultations, %d roam alerts, "+
		"%d rehash transfers moved %d deposits, %d deposit transfers\n",
		snap.Counters["logins"], snap.Counters["consultations"],
		snap.Counters["notify_roaming"], snap.Counters["rehash_transfers"],
		snap.Counters["rehash_messages_moved"], snap.Counters["deposit_transfers"])

	return reportAudit(w, rep.Ok, rep.Violations, rep.Examples,
		"auditors: clean (exactly-once across roams, no-loss, §3.2.2c overhead-only-off-primary)"), nil
}

// runAttr executes one §3.3 point: mass distribution over the
// backbone-MST with convergecast aggregation and term-index content
// retrieval, audited for loss, bounded completion, and flagged partials.
func runAttr(p params, w io.Writer) (int, error) {
	pop := population(p)
	s, err := loadgen.NewAttrScenario(loadgen.AttrConfig{
		Seed: p.seed, Pop: pop, Queries: p.queries, Ticks: p.ticks,
		DisablePrune: p.noprune, SketchRefreshEvery: p.sketchRefresh,
	})
	if err != nil {
		return 0, err
	}
	if p.faults {
		sched, err := compileChaos(s.FaultSurface(), p)
		if err != nil {
			return 0, err
		}
		s.SetSchedule(sched)
	}

	fmt.Fprintf(w, "=== attr users=%d servers=%d faults=%v seed=%d prune=%v sketchrefresh=%d\n",
		p.users, p.servers, p.faults, p.seed, !p.noprune, p.sketchRefresh)
	start := time.Now()
	rep := s.Run()
	elapsed := time.Since(start)

	fmt.Fprintf(w, "%d distribution queries (%d copies delivered), %d content "+
		"searches, %d partial summaries, %d skipped, depth ≤ %d, %d ticks — %s wall\n",
		rep.Queries, rep.Deliveries, rep.ContentQueries, rep.Partial,
		rep.Skipped, rep.MaxDepth, rep.Ticks, elapsed.Round(time.Millisecond))
	if rep.ContentQueries > 0 {
		fmt.Fprintf(w, "content fan-out: %d/%d mailboxes visited (%.1f%%), %d subtrees/%d nodes pruned, "+
			"%d sketch FPs, %d stale fail-opens, %d refreshes\n",
			rep.CQMailboxes, rep.CQMailboxesFull, pct(rep.CQMailboxes, rep.CQMailboxesFull),
			rep.PrunedSubtrees, rep.PrunedNodes, rep.SketchFP, rep.StaleOpen, rep.Refreshes)
	}

	snap := s.Snapshot()
	// The attr scenario observes its latencies pre-scaled to sim units.
	fmt.Fprint(w, snap.LatencyTable("broadcast latency", 1, "units").Render())

	return reportAudit(w, rep.Ok, rep.Violations, rep.Examples,
		"auditors: clean (no lost broadcast deliveries, bounded convergecast, partials flagged)"), nil
}

// pct renders a/b as a percentage, 0 when b is zero.
func pct(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

// reportAudit prints the auditor verdict and returns the violation total.
func reportAudit(w io.Writer, ok bool, violations map[string]int, examples []string, cleanMsg string) int {
	bad := 0
	if ok {
		fmt.Fprintln(w, cleanMsg)
		fmt.Fprintln(w)
		return 0
	}
	for k, v := range violations {
		bad += v
		fmt.Fprintf(w, "VIOLATION %s: %d\n", k, v)
	}
	for _, ex := range examples {
		fmt.Fprintf(w, "  e.g. %s\n", ex)
	}
	fmt.Fprintln(w)
	return bad
}

// rhoGaugeStats summarizes the per-server peak-ρ gauges an active placement
// policy publishes (fixed-point, placement.RhoScale per unit). Peaks, not the
// live ρ: by the time the run's final snapshot is taken the drain phase has
// decayed every arrival EWMA to zero.
func rhoGaugeStats(snap obs.Snapshot) (mean, max float64) {
	// Summed in key order: float addition is not associative, and map order
	// would make the last digit of the mean differ between identical runs.
	keys := make([]string, 0, len(snap.Gauges))
	for k := range snap.Gauges {
		if strings.HasSuffix(k, ".rho_peak") {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	n := 0
	for _, k := range keys {
		rho := float64(snap.Gauges[k]) / placement.RhoScale
		mean += rho
		if rho > max {
			max = rho
		}
		n++
	}
	if n > 0 {
		mean /= float64(n)
	}
	return mean, max
}

// counterSum reads a logical counter from the snapshot: the netsim driver
// publishes summed per-server counters under a "srv_" prefix, the live
// cluster publishes per-server "<name>.<counter>" entries.
func counterSum(snap obs.Snapshot, name string) float64 {
	if v, ok := snap.Counters["srv_"+name]; ok {
		return float64(v)
	}
	var sum int64
	for k, v := range snap.Counters {
		if strings.HasSuffix(k, "."+name) {
			sum += v
		}
	}
	return float64(sum)
}

// printUtilization renders predicted vs observed load per server (full
// table for small fleets, aggregate always).
func printUtilization(w io.Writer, loads []loadgen.ServerLoad) {
	if len(loads) == 0 {
		return
	}
	var deposits int64
	var totalLoad int
	maxRho, sumRho := 0.0, 0.0
	for _, l := range loads {
		deposits += l.Deposits
		totalLoad += l.Load
		sumRho += l.Rho
		if l.Rho > maxRho {
			maxRho = l.Rho
		}
	}
	if len(loads) <= 16 {
		t := obs.NewTable("utilization vs Q(ρ)", "server", "region", "load", "max", "ρ", "Q(ρ)", "deposits")
		for _, l := range loads {
			t.AddRow(l.Name, l.Region, l.Load, l.MaxLoad,
				fmt.Sprintf("%.3f", l.Rho), fmt.Sprintf("%.3f", l.QWait), l.Deposits)
		}
		fmt.Fprint(w, t.Render())
	}
	fmt.Fprintf(w, "utilization: mean ρ %.3f, max ρ %.3f, predicted-vs-observed share error %.4f\n",
		sumRho/float64(len(loads)), maxRho, shareError(loads, totalLoad, deposits))
}

// shareError is the max over servers of |observed deposit share − predicted
// load share| — how far the run's actual traffic drifted from the §3.1.1
// balance the Q(ρ) predictions assume.
func shareError(loads []loadgen.ServerLoad, totalLoad int, deposits int64) float64 {
	if totalLoad == 0 || deposits == 0 {
		return 0
	}
	worst := 0.0
	for _, l := range loads {
		diff := float64(l.Deposits)/float64(deposits) - float64(l.Load)/float64(totalLoad)
		if diff < 0 {
			diff = -diff
		}
		if diff > worst {
			worst = diff
		}
	}
	return worst
}
