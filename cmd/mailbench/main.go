// Command mailbench runs the internal/loadgen closed-loop workload engine
// as a capacity harness: it sweeps population × server-count combinations
// on either transport, audits the paper's invariants online (exactly-once
// deposit, no loss under faults, monotone LastCheckingTime, the §3.1.2c
// ≈1-poll guarantee), reports per-stage latency quantiles from the obs
// snapshot, compares the §3.1.1 assignment's predicted utilization and
// Q(ρ)=ρ/(1−ρ) waits against the deposits each server actually served, and
// emits the committed benchmark document (internal/benchfmt).
//
// Typical runs:
//
//	go run ./cmd/mailbench -transport netsim -users 1000000 -servers 64 -seed 1
//	go run ./cmd/mailbench -transport netsim -users 1000000 -servers 64 -seed 1 -faults
//	go run ./cmd/mailbench -transport livenet -users 2000 -servers 8
//	go run ./cmd/mailbench -users 10000,100000 -servers 16,64 -o .bench_build/sweep.json
//	go run ./cmd/mailbench -users 1000000 -servers 64 -batch 1,4,16,64 -faults -o BENCH_PR5.json
//	go run ./cmd/mailbench -users 1000000 -servers 64 -datadir /tmp/mb -faults -o BENCH_PR6.json
//	go run ./cmd/mailbench -users 1000000 -servers 64 -policy static,jsq,rebalance -profile hotspot -o BENCH_PR8.json
//	go run ./cmd/mailbench -arch roaming -users 1000000 -servers 64 -messages 6000 -ticks 300 -sessions 256
//	go run ./cmd/mailbench -arch attr -users 1000000 -servers 64 -ticks 300 -queries 60 -faults
//
// -arch selects the paper architecture under test: syntax (default, the
// §3.1 engine above), roaming (the §3.2 location-independent scenario with
// live rehash reconfiguration and the §3.2.2c overhead auditor), or attr
// (the §3.3 attribute mass-distribution scenario: predicate broadcasts down
// the back-bone MST, convergecast aggregation, loss/bound/partial auditors).
//
// With -datadir every server journals its mailbox store under a per-run
// subdirectory; the run reports WAL append throughput, and after the
// workload completes the harness closes every store and reopens it cold,
// timing the snapshot+WAL recovery replay. -faults on a durable run adds
// kill-restart windows (process death, restart from disk) to the chaos mix.
//
// The exit status is non-zero when any run finishes with auditor
// violations, so the harness doubles as a correctness gate.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/largemail/largemail/internal/benchfmt"
	"github.com/largemail/largemail/internal/faults"
	"github.com/largemail/largemail/internal/loadgen"
	"github.com/largemail/largemail/internal/mail/mailstore"
	"github.com/largemail/largemail/internal/obs"
	"github.com/largemail/largemail/internal/placement"
	"github.com/largemail/largemail/internal/sim"
	"github.com/largemail/largemail/internal/wire"
)

// params is one sweep point.
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
	retry     int     // ack retry timeout, sim units (0 = server default)
	localBias float64 // 0 = workload default
	datadir   string  // durable store root ("" = memory stores)
	fsync     mailstore.FsyncMode
	proto     string // wire framing: "text" or "binary" (wire transport only)
	inflight  int    // pipeline depth for the wire throughput burst

	policy  string          // placement policy ("" = legacy hard-wired path)
	jsqd    int             // JSQ(d) sample width
	profile loadgen.Profile // workload shape (hotspot/diurnal/flash)
	profStr string          // the -profile flag value, for labels
	srate   float64         // per-server service rate, deposits/tick (0 = auto with -policy)

	arch    string // architecture: syntax (§3.1), roaming (§3.2), attr (§3.3)
	queries int    // mass-distribution queries (-arch attr; 0 = scenario default)

	noprune       bool // -arch attr: disable sketch pruning (exhaustive baseline)
	sketchRefresh int  // -arch attr: periodic sketch refresh cadence in ticks (0 = on demand)
}

// durPoint is one point of the -durability sweep.
type durPoint struct {
	datadir string
	fsync   mailstore.FsyncMode
	faults  bool // chaos point: force the kill-restart fault schedule
}

func main() {
	transport := flag.String("transport", "netsim", "netsim (event time), livenet (wall clock), or wire (TCP protocol path)")
	usersFlag := flag.String("users", "10000", "population sizes to sweep (comma-separated)")
	serversFlag := flag.String("servers", "8", "total server counts to sweep (comma-separated)")
	regions := flag.Int("regions", 4, "regions to spread servers across")
	seed := flag.Int64("seed", 1, "workload and fault-schedule seed")
	messages := flag.Int("messages", 5000, "message budget per run")
	sessions := flag.Int("sessions", 512, "concurrent closed-loop user sessions")
	ticks := flag.Int("ticks", 120, "minimum run horizon in schedule ticks")
	withFaults := flag.Bool("faults", false, "inject a compiled crash/link/latency/drop schedule")
	batchFlag := flag.String("batch", "", "relay batch sizes to sweep (comma-separated; netsim only; empty = unbatched)")
	flush := flag.Int("flush", 20, "relay batch flush interval in sim units (with -batch)")
	retry := flag.Int("retry", 0, "transfer ack retry timeout in sim units (0 = server default; set above the topology's ack round-trip for honest batch sweeps)")
	localBias := flag.Float64("localbias", 0, "probability a recipient is region-local (0 = workload default 0.8)")
	datadir := flag.String("datadir", "", "durable store root; each sweep point journals under its own subdirectory and reports WAL throughput plus recovery-replay time")
	fsyncFlag := flag.String("fsync", "never", "WAL fsync policy with -datadir: never|always")
	durabilityFlag := flag.String("durability", "", "durability sweep (comma-separated of off|never|always|chaos; requires -datadir): off = memory stores, never/always = durable with that fsync policy, chaos = durable fsync-never under a kill-restart fault schedule")
	protoFlag := flag.String("proto", "binary", "wire framings to sweep (comma-separated of text,binary; -transport wire only)")
	inflightFlag := flag.String("inflight", "8", "pipeline depths to sweep (comma-separated; -transport wire only)")
	policyFlag := flag.String("policy", "", "placement policies to sweep (comma-separated of static,jsq,rebalance; empty = legacy hard-wired placement)")
	jsqd := flag.Int("d", 2, "JSQ(d) sample width (with -policy jsq)")
	profileFlag := flag.String("profile", "", "workload profile: hotspot[:hosts[:frac%]], diurnal[:period], flash[:start:len] (empty = uniform)")
	srate := flag.Float64("srate", 0, "per-server service rate in deposits/tick for the congestion model (0 = derived from the message budget when -policy is set)")
	archFlag := flag.String("arch", "syntax", "architecture under test: syntax (§3.1 name-routed), roaming (§3.2 location-independent), attr (§3.3 attribute broadcast)")
	queries := flag.Int("queries", 0, "mass-distribution queries per run (0 = scenario default; -arch attr only)")
	noprune := flag.Bool("noprune", false, "disable sketch pruning of content queries — the exhaustive E21 baseline (-arch attr only)")
	sketchRefresh := flag.Int("sketchrefresh", 0, "refresh subtree sketches every N ticks instead of before each pruned launch; leaves stale windows that must fail open (-arch attr only)")
	appendDoc := flag.Bool("append", false, "append to an existing benchmark document instead of overwriting it")
	out := flag.String("o", ".bench_build/mailbench.json", "benchmark document path, its directory created if missing (empty = stdout)")
	flag.Parse()

	switch *archFlag {
	case "syntax", "roaming", "attr":
	default:
		fmt.Fprintf(os.Stderr, "mailbench: -arch: unknown architecture %q\n", *archFlag)
		os.Exit(2)
	}
	if *archFlag != "attr" && (*noprune || *sketchRefresh != 0) {
		fmt.Fprintf(os.Stderr, "mailbench: -noprune/-sketchrefresh require -arch attr\n")
		os.Exit(2)
	}
	if *archFlag != "syntax" {
		// The roaming and attr scenarios run on their own netsim worlds;
		// the syntax-only knobs have no meaning there.
		if *transport != "netsim" {
			fmt.Fprintf(os.Stderr, "mailbench: -arch %s requires -transport netsim\n", *archFlag)
			os.Exit(2)
		}
		for flagName, set := range map[string]bool{
			"-policy": *policyFlag != "", "-batch": *batchFlag != "",
			"-datadir": *datadir != "", "-durability": *durabilityFlag != "",
			"-profile": *profileFlag != "",
		} {
			if set {
				fmt.Fprintf(os.Stderr, "mailbench: %s is not supported with -arch %s\n", flagName, *archFlag)
				os.Exit(2)
			}
		}
	}

	profile, err := loadgen.ParseProfile(*profileFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mailbench: -profile:", err)
		os.Exit(2)
	}
	policySweep := []string{""}
	if *policyFlag != "" {
		policySweep = policySweep[:0]
		for _, v := range strings.Split(*policyFlag, ",") {
			name, err := placement.ParseName(strings.TrimSpace(v))
			if err != nil {
				fmt.Fprintln(os.Stderr, "mailbench: -policy:", err)
				os.Exit(2)
			}
			policySweep = append(policySweep, name)
		}
	}

	fsync, err := mailstore.ParseFsyncMode(*fsyncFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mailbench: -fsync:", err)
		os.Exit(2)
	}
	durSweep := []durPoint{{datadir: *datadir, fsync: fsync}}
	if *durabilityFlag != "" {
		if *datadir == "" {
			fmt.Fprintln(os.Stderr, "mailbench: -durability requires -datadir")
			os.Exit(2)
		}
		durSweep = durSweep[:0]
		for _, v := range strings.Split(*durabilityFlag, ",") {
			switch strings.TrimSpace(v) {
			case "off":
				durSweep = append(durSweep, durPoint{})
			case "never":
				durSweep = append(durSweep, durPoint{datadir: *datadir})
			case "always":
				durSweep = append(durSweep, durPoint{datadir: *datadir, fsync: mailstore.FsyncAlways})
			case "chaos":
				durSweep = append(durSweep, durPoint{datadir: *datadir, faults: true})
			default:
				fmt.Fprintf(os.Stderr, "mailbench: -durability: unknown point %q\n", v)
				os.Exit(2)
			}
		}
	}

	if *transport != "netsim" && *transport != "livenet" && *transport != "wire" {
		fmt.Fprintf(os.Stderr, "mailbench: unknown transport %q\n", *transport)
		os.Exit(2)
	}
	protoSweep, inflightSweep := []string{""}, []int{0}
	if *transport == "wire" {
		if *datadir != "" {
			fmt.Fprintln(os.Stderr, "mailbench: -datadir is not supported with -transport wire")
			os.Exit(2)
		}
		protoSweep = protoSweep[:0]
		for _, v := range strings.Split(*protoFlag, ",") {
			v = strings.TrimSpace(v)
			if v != "text" && v != "binary" {
				fmt.Fprintf(os.Stderr, "mailbench: -proto: unknown framing %q\n", v)
				os.Exit(2)
			}
			protoSweep = append(protoSweep, v)
		}
		if inflightSweep, err = parseInts(*inflightFlag); err != nil {
			fmt.Fprintln(os.Stderr, "mailbench: -inflight:", err)
			os.Exit(2)
		}
	}
	userSweep, err := parseInts(*usersFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mailbench: -users:", err)
		os.Exit(2)
	}
	serverSweep, err := parseInts(*serversFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mailbench: -servers:", err)
		os.Exit(2)
	}
	batchSweep := []int{0}
	if *batchFlag != "" {
		// netsim: relay envelope size. wire: tbatch size in the throughput
		// burst (1 = single submit frames).
		if *transport == "livenet" {
			fmt.Fprintln(os.Stderr, "mailbench: -batch requires -transport netsim or wire")
			os.Exit(2)
		}
		if batchSweep, err = parseInts(*batchFlag); err != nil {
			fmt.Fprintln(os.Stderr, "mailbench: -batch:", err)
			os.Exit(2)
		}
	}

	doc := benchfmt.Doc{Goos: runtime.GOOS, Goarch: runtime.GOARCH}
	if *appendDoc && *out != "" {
		if buf, err := os.ReadFile(*out); err == nil {
			if err := json.Unmarshal(buf, &doc); err != nil {
				fmt.Fprintf(os.Stderr, "mailbench: -append: %s: %v\n", *out, err)
				os.Exit(2)
			}
		}
	}
	violations := 0
	for _, users := range userSweep {
		for _, servers := range serverSweep {
			for _, batch := range batchSweep {
				for _, dp := range durSweep {
					for _, proto := range protoSweep {
						for _, inflight := range inflightSweep {
							for _, pol := range policySweep {
								p := params{
									transport: *transport, users: users, servers: servers,
									regions: *regions, seed: *seed, messages: *messages,
									sessions: *sessions, ticks: *ticks,
									faults: *withFaults || dp.faults,
									batch:  batch, flush: *flush, retry: *retry, localBias: *localBias,
									datadir: dp.datadir, fsync: dp.fsync,
									proto: proto, inflight: inflight,
									policy: pol, jsqd: *jsqd,
									profile: profile, profStr: *profileFlag, srate: *srate,
									arch: *archFlag, queries: *queries,
									noprune: *noprune, sketchRefresh: *sketchRefresh,
								}
								var (
									res benchfmt.Result
									bad int
									err error
								)
								switch p.arch {
								case "roaming":
									res, bad, err = runRoaming(p)
								case "attr":
									res, bad, err = runAttr(p)
								default:
									res, bad, err = run(p)
								}
								if err != nil {
									fmt.Fprintln(os.Stderr, "mailbench:", err)
									os.Exit(1)
								}
								doc.Benchmarks = append(doc.Benchmarks, res)
								violations += bad
							}
						}
					}
				}
			}
		}
	}
	if *out != "" {
		if err := os.MkdirAll(filepath.Dir(*out), 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "mailbench: write:", err)
			os.Exit(1)
		}
	}
	if err := doc.WriteFile(*out); err != nil {
		fmt.Fprintln(os.Stderr, "mailbench: write:", err)
		os.Exit(1)
	}
	if *out != "" {
		fmt.Printf("wrote %d runs to %s\n", len(doc.Benchmarks), *out)
	}
	if violations > 0 {
		fmt.Fprintf(os.Stderr, "mailbench: %d auditor violations\n", violations)
		os.Exit(1)
	}
}

func parseInts(csv string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(csv, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		n, err := strconv.Atoi(f)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad value %q", f)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}

// population derives the regional layout for a sweep point: servers spread
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

// faultProfile scales a standard chaos mix to the deployment size, using
// only the driver's safe fault surface. A durable driver additionally
// offers KillTargets; Compile requires the crash and kill pools to be
// disjoint (a Recover landing between a Kill and its Restart would revive a
// node whose store is torn down), so the fleet is split: the first half
// crashes, the second half kill-restarts from disk.
func faultProfile(drv loadgen.Driver, p params, ticks int) (*faults.Schedule, error) {
	return compileChaos(drv.FaultSurface(), p, ticks)
}

// compileChaos applies the standard size-scaled chaos mix to any fault
// surface (the attr scenario exposes one without being a loadgen.Driver).
func compileChaos(spec faults.Spec, p params, ticks int) (*faults.Schedule, error) {
	spec.Seed = p.seed
	spec.Ticks = ticks
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

// runDataDir gives each sweep point its own durable root: sweep points
// differ in shard layout and server count, and a reused directory would
// either conflict on the manifest or replay a previous point's mail.
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

// run executes one sweep point and renders its report.
func run(p params) (benchfmt.Result, int, error) {
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
	var wireDrv *loadgen.WireDriver
	switch p.transport {
	case "wire":
		if p.policy != "" {
			return benchfmt.Result{}, 0, fmt.Errorf("-policy is not supported with -transport wire")
		}
		d, err := loadgen.NewWireDriver(loadgen.WireConfig{
			Pop:   pop,
			Proto: p.proto,
		})
		if err != nil {
			return benchfmt.Result{}, 0, err
		}
		wireDrv, drv, close = d, d, d.Close
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
			return benchfmt.Result{}, 0, err
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
			return benchfmt.Result{}, 0, err
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
		sched, err := faultProfile(drv, p, p.ticks)
		if err != nil {
			return benchfmt.Result{}, 0, err
		}
		cfg.Schedule = sched
	}

	label := fmt.Sprintf("%s users=%d servers=%d faults=%v seed=%d",
		p.transport, p.users, p.servers, p.faults, p.seed)
	if p.transport == "wire" {
		label += fmt.Sprintf(" proto=%s inflight=%d batch=%d", p.proto, p.inflight, burstBatch(p))
	} else if p.batch > 0 {
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
	fmt.Printf("=== %s\n", label)
	start := time.Now()
	rep := loadgen.New(drv, cfg).Run()
	elapsed := time.Since(start)

	fmt.Printf("submitted %d messages (%d copies) in %d ticks, %d retrievals, "+
		"%d polls, %d dup-suppressed — %s wall\n",
		rep.Submitted, rep.Copies, rep.Ticks, rep.Retrievals, rep.Polls,
		rep.Duplicates, elapsed.Round(time.Millisecond))

	snap := drv.Snapshot()
	fmt.Print(snap.LatencyTable("stage latency", scale, unit).Render())
	printUtilization(rep.Loads)
	if env := counterSum(snap, "relay_envelopes"); env > 0 {
		xfers := counterSum(snap, "transfers_out")
		fmt.Printf("relay: %.0f envelopes carried %.0f transfers (%.1f msgs/envelope), %.0f splits\n",
			env, xfers, xfers/env, counterSum(snap, "batch_splits"))
	}
	if p.policy != "" {
		// The migration counters live un-prefixed in the driver registry, not
		// under a per-server name — read them directly.
		rhoMean, rhoMax := rhoGaugeStats(snap)
		fmt.Printf("balance: policy=%s, %d migrations moved %.0f messages, "+
			"%.0f deposits rerouted (%.0f loop-dropped), observed ρ mean %.3f max %.3f\n",
			p.policy, snap.Counters["migrations_total"],
			float64(snap.Counters["migration_cost"]),
			counterSum(snap, "deposit_reroutes"), counterSum(snap, "reroute_loops_dropped"),
			rhoMean, rhoMax)
	}

	bad := 0
	if !rep.Ok {
		for k, v := range rep.Violations {
			bad += v
			fmt.Printf("VIOLATION %s: %d\n", k, v)
		}
		for _, ex := range rep.Examples {
			fmt.Printf("  e.g. %s\n", ex)
		}
	} else {
		fmt.Println("auditors: clean (exactly-once, no-loss, monotone LCT, poll efficiency)")
	}
	fmt.Println()

	m := metrics(rep, snap, elapsed, scale)
	if p.policy != "" {
		m["migrations"] = float64(rep.Migrations)
		m["migrations_total"] = float64(snap.Counters["migrations_total"])
		m["migration_cost"] = float64(snap.Counters["migration_cost"])
		m["deposit_reroutes"] = counterSum(snap, "deposit_reroutes")
		m["reroute_loops_dropped"] = counterSum(snap, "reroute_loops_dropped")
		m["rho_obs_mean"], m["rho_obs_max"] = rhoGaugeStats(snap)
		m["srate"] = srate
	}
	if wireDrv != nil {
		if err := wireBurst(wireDrv.Addr(), p, m); err != nil {
			return benchfmt.Result{}, 0, fmt.Errorf("wire burst: %w", err)
		}
		fmt.Printf("wire burst: %.0f msgs/s, %.1f allocs/msg (%s, inflight=%d, batch=%d, %.0fB bodies)\n",
			m["wire_msgs_per_sec"], m["wire_allocs_per_msg"],
			p.proto, p.inflight, burstBatch(p), m["wire_body_bytes"])
	}
	if ds, ok := drv.(interface {
		DurabilityStats() (mailstore.WALStats, bool)
	}); ok {
		if ws, on := ds.DurabilityStats(); on {
			addWALMetrics(m, ws)
			fmt.Printf("wal: %d appends, %.1f MB, %.1f MB/s append path, %d syncs, %d rotations, %d compactions\n",
				ws.Appends, float64(ws.Bytes)/1e6, m["wal_append_mbps"],
				ws.Syncs, ws.Rotations, ws.Compactions)
		}
	}
	if dataDir != "" {
		close() // sync and release every store before reopening its directory
		if err := measureRecovery(dataDir, m); err != nil {
			return benchfmt.Result{}, 0, fmt.Errorf("recovery replay: %w", err)
		}
		fmt.Printf("recovery: replayed %.0f records (%.0f live messages, %.0f mailboxes) across %d stores in %.1f ms\n",
			m["recovered_records"], m["recovered_msgs"], m["recovered_mailboxes"],
			int(m["recovered_stores"]), m["recovery_ms"])
	}

	res := benchfmt.Result{
		Name:       benchName(p),
		Pkg:        "cmd/mailbench",
		Iterations: 1,
		Metrics:    m,
	}
	return res, bad, nil
}

// runRoaming executes one §3.2 sweep point: the locind-backed RoamDriver
// under the closed-loop engine, with roam waves and live rehash
// reconfiguration layered on top and the §3.2.2c overhead auditor online.
func runRoaming(p params) (benchfmt.Result, int, error) {
	pop := population(p)
	drv, err := loadgen.NewRoamDriver(loadgen.RoamConfig{Seed: p.seed, Pop: pop})
	if err != nil {
		return benchfmt.Result{}, 0, err
	}
	cfg := loadgen.Config{
		Seed: p.seed, Messages: p.messages, Sessions: p.sessions, Ticks: p.ticks,
	}
	if p.faults {
		sched, err := faultProfile(drv, p, p.ticks)
		if err != nil {
			return benchfmt.Result{}, 0, err
		}
		cfg.Schedule = sched
	}

	fmt.Printf("=== roaming users=%d servers=%d faults=%v seed=%d\n",
		p.users, p.servers, p.faults, p.seed)
	start := time.Now()
	// RehashEvery 7 keeps the live rehash off-phase with the engine's
	// retrieval sweep (period 4), so reconfiguration hits loaded mailboxes.
	rep := loadgen.RunRoamScenario(drv, cfg, loadgen.RoamScenarioConfig{
		Seed:        p.seed,
		RehashEvery: 7,
	})
	elapsed := time.Since(start)

	fmt.Printf("submitted %d messages (%d copies) in %d ticks, %d retrievals, "+
		"%d polls, %d dup-suppressed — %s wall\n",
		rep.Submitted, rep.Copies, rep.Ticks, rep.Retrievals, rep.Polls,
		rep.Duplicates, elapsed.Round(time.Millisecond))

	snap := drv.Snapshot()
	fmt.Print(snap.LatencyTable("stage latency", float64(sim.Unit), "units").Render())
	printUtilization(rep.Loads)
	fmt.Printf("roaming: %d logins, %d consultations, %d roam alerts, "+
		"%d rehash transfers moved %d deposits, %d deposit transfers\n",
		snap.Counters["logins"], snap.Counters["consultations"],
		snap.Counters["notify_roaming"], snap.Counters["rehash_transfers"],
		snap.Counters["rehash_messages_moved"], snap.Counters["deposit_transfers"])

	bad := reportAudit(rep.Ok, rep.Violations, rep.Examples,
		"auditors: clean (exactly-once across roams, no-loss, §3.2.2c overhead-only-off-primary)")

	m := metrics(rep, snap, elapsed, float64(sim.Unit))
	for _, k := range []string{
		"logins", "consultations", "notify_home", "notify_roaming",
		"notify_probe_primary", "rehash_transfers", "rehash_messages_moved",
		"deposit_transfers", "deposit_reroutes",
	} {
		m[k] = float64(snap.Counters[k])
	}
	return benchfmt.Result{
		Name:       benchName(p),
		Pkg:        "cmd/mailbench",
		Iterations: 1,
		Metrics:    m,
	}, bad, nil
}

// runAttr executes one §3.3 sweep point: mass distribution over the
// backbone-MST with convergecast aggregation and term-index content
// retrieval, audited for loss, bounded completion, and flagged partials.
func runAttr(p params) (benchfmt.Result, int, error) {
	pop := population(p)
	s, err := loadgen.NewAttrScenario(loadgen.AttrConfig{
		Seed: p.seed, Pop: pop, Queries: p.queries, Ticks: p.ticks,
		DisablePrune: p.noprune, SketchRefreshEvery: p.sketchRefresh,
	})
	if err != nil {
		return benchfmt.Result{}, 0, err
	}
	if p.faults {
		sched, err := compileChaos(s.FaultSurface(), p, p.ticks)
		if err != nil {
			return benchfmt.Result{}, 0, err
		}
		s.SetSchedule(sched)
	}

	fmt.Printf("=== attr users=%d servers=%d faults=%v seed=%d prune=%v sketchrefresh=%d\n",
		p.users, p.servers, p.faults, p.seed, !p.noprune, p.sketchRefresh)
	start := time.Now()
	rep := s.Run()
	elapsed := time.Since(start)

	fmt.Printf("%d distribution queries (%d copies delivered), %d content "+
		"searches, %d partial summaries, %d skipped, depth ≤ %d, %d ticks — %s wall\n",
		rep.Queries, rep.Deliveries, rep.ContentQueries, rep.Partial,
		rep.Skipped, rep.MaxDepth, rep.Ticks, elapsed.Round(time.Millisecond))
	if rep.ContentQueries > 0 {
		fmt.Printf("content fan-out: %d/%d mailboxes visited (%.1f%%), %d subtrees/%d nodes pruned, "+
			"%d sketch FPs, %d stale fail-opens, %d refreshes\n",
			rep.CQMailboxes, rep.CQMailboxesFull, pct(rep.CQMailboxes, rep.CQMailboxesFull),
			rep.PrunedSubtrees, rep.PrunedNodes, rep.SketchFP, rep.StaleOpen, rep.Refreshes)
	}

	snap := s.Snapshot()
	// The attr scenario observes its latencies pre-scaled to sim units.
	fmt.Print(snap.LatencyTable("broadcast latency", 1, "units").Render())

	bad := reportAudit(rep.Ok, rep.Violations, rep.Examples,
		"auditors: clean (no lost broadcast deliveries, bounded convergecast, partials flagged)")

	m := map[string]float64{
		"queries":         float64(rep.Queries),
		"content_queries": float64(rep.ContentQueries),
		"deliveries":      float64(rep.Deliveries),
		"partial":         float64(rep.Partial),
		"skipped":         float64(rep.Skipped),
		"max_depth":       float64(rep.MaxDepth),
		"ticks":           float64(rep.Ticks),
		"violations":      0,
		"ns/op":           float64(elapsed.Nanoseconds()),
		"bcast_deposits":  float64(snap.Counters["bcast_deposits"]),

		"attr_pruned_subtrees": float64(rep.PrunedSubtrees),
		"attr_pruned_nodes":    float64(rep.PrunedNodes),
		"attr_visited_nodes":   float64(rep.VisitedNodes),
		"attr_sketch_fp":       float64(rep.SketchFP),
		"attr_stale_open":      float64(rep.StaleOpen),
		"sketch_refreshes":     float64(rep.Refreshes),
		"cq_mailboxes":         float64(rep.CQMailboxes),
		"cq_mailboxes_full":    float64(rep.CQMailboxesFull),
	}
	if rep.CQMailboxesFull > 0 {
		m["cq_visit_ratio"] = float64(rep.CQMailboxes) / float64(rep.CQMailboxesFull)
	}
	for _, v := range rep.Violations {
		m["violations"] += float64(v)
	}
	addLatencyMetrics(m, snap, 1)
	return benchfmt.Result{
		Name:       benchName(p),
		Pkg:        "cmd/mailbench",
		Iterations: 1,
		Metrics:    m,
	}, bad, nil
}

// pct renders a/b as a percentage, 0 when b is zero.
func pct(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

// reportAudit prints the auditor verdict and returns the violation total.
func reportAudit(ok bool, violations map[string]int, examples []string, cleanMsg string) int {
	bad := 0
	if ok {
		fmt.Println(cleanMsg)
		fmt.Println()
		return 0
	}
	for k, v := range violations {
		bad += v
		fmt.Printf("VIOLATION %s: %d\n", k, v)
	}
	for _, ex := range examples {
		fmt.Printf("  e.g. %s\n", ex)
	}
	fmt.Println()
	return bad
}

// burstBatch is the tbatch size the wire throughput burst uses (the -batch
// knob; 0/unset means single submit frames).
func burstBatch(p params) int {
	if p.batch < 1 {
		return 1
	}
	return p.batch
}

// wireBurst measures the raw wire path after the audited run: a fresh
// client on the same server, a pipelined window of p.inflight requests,
// 512-byte bodies, burstBatch messages per frame. Client and server share
// the process, so allocs/msg covers the whole encode→decode→deposit→respond
// path — exactly the allocations the binary framing is meant to remove.
func wireBurst(addr string, p params, m map[string]float64) error {
	const (
		burstMsgs = 8000
		warmup    = 400
		bodySize  = 512
	)
	c, err := wire.DialOptions(addr, wire.Options{TextOnly: p.proto == "text"})
	if err != nil {
		return err
	}
	defer c.Close()
	from := "R0.h1.benchsender"
	if err := c.Register(from, "S0"); err != nil {
		return err
	}
	// Spread deposits over several sink mailboxes: one mailbox absorbing
	// the whole burst measures slice-growth pathology, not the wire path.
	const sinks = 16
	tos := make([][]string, sinks)
	for i := range tos {
		u := fmt.Sprintf("R0.h1.benchsink%d", i)
		if err := c.Register(u, fmt.Sprintf("S%d", i%p.servers)); err != nil {
			return err
		}
		tos[i] = []string{u}
	}
	pl, err := c.Pipeline(context.Background(), p.inflight)
	if err != nil {
		return err
	}
	if p.proto == "binary" && !c.BinaryFraming() {
		return fmt.Errorf("server declined binary framing")
	}
	batch := burstBatch(p)
	body := strings.Repeat("m", bodySize)
	pending := make([]int, sinks) // deposits per sink since its last drain
	send := func(n int) ([]*wire.Future, int) {
		futs := make([]*wire.Future, 0, n/batch+1)
		sent := 0
		for sent < n {
			si := (sent / batch) % sinks
			to := tos[si]
			if batch == 1 {
				futs = append(futs, pl.Submit(from, to, "b", body))
				sent++
			} else {
				msgs := make([]wire.BatchMsg, batch)
				for i := range msgs {
					msgs[i] = wire.BatchMsg{To: to, Subject: "b", Body: body}
				}
				futs = append(futs, pl.SubmitBatch(from, msgs))
				sent += batch
			}
			// Recipients read their mail: drain each sink every 64 deposits
			// so mailboxes stay bounded, as in any live system.
			if pending[si] += batch; pending[si] >= 64 {
				pending[si] = 0
				futs = append(futs, pl.Do(wire.Request{Op: "getmail", User: to[0]}))
			}
		}
		return futs, sent
	}
	reap := func(futs []*wire.Future) error {
		for _, f := range futs {
			if _, err := f.Response(); err != nil {
				return err
			}
		}
		return nil
	}
	wfuts, _ := send(warmup)
	if err := reap(wfuts); err != nil {
		return err
	}
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	futs, sent := send(burstMsgs)
	reapErr := reap(futs)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)
	if reapErr != nil {
		return reapErr
	}
	if err := pl.Close(); err != nil {
		return err
	}
	m["wire_msgs_per_sec"] = float64(sent) / elapsed.Seconds()
	m["wire_allocs_per_msg"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(sent)
	m["wire_burst_msgs"] = float64(sent)
	m["wire_body_bytes"] = bodySize
	return nil
}

// addWALMetrics flattens the summed WAL counters into the metric map.
func addWALMetrics(m map[string]float64, ws mailstore.WALStats) {
	m["wal_appends"] = float64(ws.Appends)
	m["wal_mb"] = float64(ws.Bytes) / 1e6
	m["wal_syncs"] = float64(ws.Syncs)
	m["wal_rotations"] = float64(ws.Rotations)
	m["wal_compactions"] = float64(ws.Compactions)
	if ws.AppendNs > 0 {
		m["wal_append_mbps"] = float64(ws.Bytes) * 1e3 / float64(ws.AppendNs)
	}
}

// measureRecovery reopens every per-server store directory under dataDir —
// the cold-start path a restarted deployment takes — and records the total
// replay wall time and recovered state in the metric map.
func measureRecovery(dataDir string, m map[string]float64) error {
	entries, err := os.ReadDir(dataDir)
	if err != nil {
		return err
	}
	start := time.Now()
	var msgs, boxes, records, stores float64
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		st, err := mailstore.Open(filepath.Join(dataDir, e.Name()), 0)
		if err != nil {
			return fmt.Errorf("reopen %s: %w", e.Name(), err)
		}
		if rs, ok := st.RecoveryStats(); ok {
			msgs += float64(rs.Messages)
			boxes += float64(rs.Mailboxes)
			records += float64(rs.Records)
		}
		if err := st.Close(); err != nil {
			return err
		}
		stores++
	}
	m["recovery_ms"] = float64(time.Since(start).Nanoseconds()) / 1e6
	m["recovered_msgs"] = msgs
	m["recovered_mailboxes"] = boxes
	m["recovered_records"] = records
	m["recovered_stores"] = stores
	return nil
}

func benchName(p params) string {
	name := fmt.Sprintf("Mailbench/%s/users=%d/servers=%d", p.transport, p.users, p.servers)
	if p.arch != "" && p.arch != "syntax" {
		name += "/arch=" + p.arch
	}
	if p.noprune {
		name += "/noprune"
	}
	if p.sketchRefresh > 0 {
		name += fmt.Sprintf("/sketchrefresh=%d", p.sketchRefresh)
	}
	if p.transport == "wire" {
		name += fmt.Sprintf("/proto=%s/inflight=%d/batch=%d", p.proto, p.inflight, burstBatch(p))
	} else if p.batch > 0 {
		name += fmt.Sprintf("/batch=%d", p.batch)
	}
	if p.faults {
		name += "/faults"
	}
	if p.datadir != "" {
		name += "/durable/fsync=" + p.fsync.String()
	}
	if p.policy != "" {
		name += "/policy=" + p.policy
		if p.policy == placement.NameJSQ {
			name += fmt.Sprintf("/d=%d", p.jsqd)
		}
	}
	if p.profStr != "" {
		name += "/profile=" + strings.ReplaceAll(p.profStr, ":", "-")
	}
	return name
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
func printUtilization(loads []loadgen.ServerLoad) {
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
		fmt.Print(t.Render())
	}
	fmt.Printf("utilization: mean ρ %.3f, max ρ %.3f, predicted-vs-observed share error %.4f\n",
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

// metrics flattens the run into the benchmark document's metric map. Stage
// latencies are reported in the transport's table unit (sim units / ms).
func metrics(rep loadgen.Report, snap obs.Snapshot, elapsed time.Duration, scale float64) map[string]float64 {
	m := map[string]float64{
		"messages":   float64(rep.Submitted),
		"copies":     float64(rep.Copies),
		"retrievals": float64(rep.Retrievals),
		"polls":      float64(rep.Polls),
		"dups":       float64(rep.Duplicates),
		"ticks":      float64(rep.Ticks),
		"violations": 0,
		"ns/op":      float64(elapsed.Nanoseconds()),
	}
	for _, v := range rep.Violations {
		m["violations"] += float64(v)
	}
	if rep.Retrievals > 0 {
		m["polls_per_retrieval"] = float64(rep.Polls) / float64(rep.Retrievals)
	}
	if env := counterSum(snap, "relay_envelopes"); env > 0 {
		m["relay_envelopes"] = env
		m["transfers_out"] = counterSum(snap, "transfers_out")
		m["batch_splits"] = counterSum(snap, "batch_splits")
		m["msgs_per_envelope"] = m["transfers_out"] / env
	}
	addLatencyMetrics(m, snap, scale)
	var deposits int64
	var totalLoad int
	maxRho, sumRho, maxQ := 0.0, 0.0, 0.0
	for _, l := range rep.Loads {
		deposits += l.Deposits
		totalLoad += l.Load
		sumRho += l.Rho
		if l.Rho > maxRho {
			maxRho = l.Rho
		}
		if l.QWait > maxQ {
			maxQ = l.QWait
		}
	}
	if n := len(rep.Loads); n > 0 {
		m["rho_mean"] = sumRho / float64(n)
		m["rho_max"] = maxRho
		m["q_wait_max"] = maxQ
		m["util_share_err"] = shareError(rep.Loads, totalLoad, deposits)
	}
	return m
}

// addLatencyMetrics flattens every non-empty histogram's quantiles into the
// metric map, scaled to the transport's table unit.
func addLatencyMetrics(m map[string]float64, snap obs.Snapshot, scale float64) {
	names := make([]string, 0, len(snap.Histograms))
	for n := range snap.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := snap.Histograms[n]
		if h.Count == 0 {
			continue
		}
		m[n+"_p50"] = h.P50 / scale
		m[n+"_p95"] = h.P95 / scale
		m[n+"_p99"] = h.P99 / scale
	}
}
