package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"

	"github.com/largemail/largemail/internal/loadgen"
)

// setupRepeats is how many times an untraced run sets its system up; it
// reports the median. The last set-up is the one that gets measured on.
const setupRepeats = 3

// usage is a reading of the process's clocks and allocation counters.
type usage struct {
	wall    time.Duration // since an arbitrary origin
	cpu     time.Duration // user+sys of the whole process (getrusage)
	mallocs uint64
	bytes   uint64
}

var processStart = time.Now()

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return usage{
		wall:    time.Since(processStart),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
	}
}

func (u usage) since(o usage) usage {
	return usage{wall: u.wall - o.wall, cpu: u.cpu - o.cpu, mallocs: u.mallocs - o.mallocs, bytes: u.bytes - o.bytes}
}

// heapAfterGC returns HeapAlloc after two collections (the second frees
// what finalizers and sync.Pool clean-up released in the first).
func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// peakRSSMB is ru_maxrss: the process's peak resident set size so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) / 1024                // Linux reports KiB
}

type workloadDef struct {
	Name string
	Why  string
	Run  func(c *passCtx) error
	// FullSeconds is how long the measured phase takes at the issue's sizes
	// on the reference sandbox (2-core Xeon 2.10 GHz). A run of --seconds s
	// scales every message, session and query count of the workload by
	// s ÷ FullSeconds, so its measured phase fills --seconds and stays
	// fixed by count: two runs with the same --seconds do the same work on
	// either side of a comparison.
	FullSeconds float64
	// Pop maps the user indices of the workload's submits to names; Batch
	// is how many messages it puts in a wire frame (0: one).
	Pop   *loadgen.Population
	Batch int
	// Replays are the layers on this workload's path; the traced run feeds
	// each of them the submits the workload generated.
	Replays []replay
	// CalibrateSetup says that the workload's set-up is user-space work on
	// memory, whose wall time follows what the host's neighbours do to the
	// memory system; its setup_s is reported in seconds of the calibrated
	// host (host.go). The wire workloads' set-up is half system time — 256
	// shard logs to create — which the calibration kernels say nothing
	// about: dividing by their factor made it noisier, so it is reported as
	// measured.
	CalibrateSetup bool
	// Inputs, when not 0, is how many distinct sets of inputs the workload
	// has: --seed picks one of them (inputSeed). It is set where a run's
	// correctness is decided by its seed and not every seed passes, so that
	// the sets that can be asked for are few enough to have all been run.
	Inputs int64
}

// inputSeed maps --seed to the seed the workload's inputs are made from.
func (def workloadDef) inputSeed(seed int64) int64 {
	if def.Inputs == 0 {
		return seed
	}
	// Seeds 1 to Inputs stand for themselves.
	return (seed%def.Inputs+def.Inputs+def.Inputs-1)%def.Inputs + 1
}

// passCtx is one pass over a workload: build the system, measure, check,
// tear down.
type passCtx struct {
	seed  int64
	scale float64   // share of the issue's sizes
	rec   *recorder // nil in an untraced pass
	ops   *opLog    // nil in an untraced pass
	// setupOnly ends the pass where set-up ends: see endSetup.
	setupOnly bool
	// scratchRoot is where a pass may create directories; scratch() makes
	// one and runPass removes it.
	scratchRoot string
	scratchDir  string

	m         map[string]float64 // this pass's metric values, by name
	sizes     map[string]float64 // the workload's sizes, for the run document
	measured  time.Duration      // total length of the measured phases
	cpu       time.Duration      // CPU time over the measured phases
	attempted int64
	failed    int64
	errs      []string
	// fingerprint holds everything that must repeat for a seed; the traced
	// run compares it between its untraced and traced passes.
	fingerprint string

	setupFrom time.Time
	// calibrate is the workload's CalibrateSetup; hostBefore and host are
	// the host's speed factor before the set-up and the mean of before and
	// after (hostFactor), 1 when the set-up is not calibrated.
	calibrate        bool
	hostBefore, host float64
}

// n scales one of the issue's counts to this pass, never below min.
func (c *passCtx) n(issueCount, min int) int {
	v := int(math.Round(float64(issueCount) * c.scale))
	if v < min {
		v = min
	}
	return v
}

func (c *passCtx) set(name string, v float64) { c.m[name] = v }

func (c *passCtx) failf(format string, args ...any) {
	c.errs = append(c.errs, fmt.Sprintf(format, args...))
}

// violations folds an auditor's verdict into the pass: every violation is
// a correctness failure and counts as a failed operation.
func (c *passCtx) violations(who string, counts map[string]int, examples []string) {
	for kind, n := range counts {
		c.failed += int64(n)
		c.failf("%s: %d × %s", who, n, kind)
	}
	for _, ex := range examples {
		c.failf("  e.g. %s", ex)
	}
}

func (c *passCtx) scratch() (string, error) {
	if c.scratchDir != "" {
		return c.scratchDir, nil
	}
	if err := os.MkdirAll(c.scratchRoot, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(c.scratchRoot, "pass-")
	if err != nil {
		return "", err
	}
	c.scratchDir = dir
	return dir, nil
}

func (c *passCtx) beginSetup() {
	c.hostBefore = 1
	if c.calibrate {
		c.hostBefore = hostFactor()
	}
	c.setupFrom = time.Now()
}

// endSetup closes the set-up phase and collects, so the measured phase
// starts from a settled heap. It reports whether the pass stops here: a
// set-up-only pass exists to time set-up once more, and its workload returns
// at once (`if c.endSetup() { return nil }`), tearing down through its defers.
//
// setup_s is the set-up's wall time in seconds of the calibrated host: host.go.
func (c *passCtx) endSetup() (stop bool) {
	wall := time.Since(c.setupFrom).Seconds()
	c.host = 1
	if c.calibrate {
		c.host = (c.hostBefore + hostFactor()) / 2
	}
	c.set("setup_s", wall/c.host)
	runtime.GC()
	return c.setupOnly
}

// phase adds one measured phase to the pass's totals.
func (c *passCtx) phase(u usage) {
	c.measured += u.wall
	c.cpu += u.cpu
}

// closedLoop records the metrics every closed loop reports for a measured
// phase that completed msgs messages.
func (c *passCtx) closedLoop(u usage, msgs float64) {
	c.phase(u)
	c.set("msgs_per_s", msgs/u.wall.Seconds())
	c.costs(u, msgs)
}

func (c *passCtx) costs(u usage, msgs float64) {
	c.set("cpu_us_per_msg", float64(u.cpu.Nanoseconds())/1e3/msgs)
	c.set("allocs_per_msg", float64(u.mallocs)/msgs)
	c.set("alloc_bytes_per_msg", float64(u.bytes)/msgs)
}

type runOpts struct {
	Workload  string
	Seed      int64
	Seconds   float64
	Trace     bool
	SpansPath string
	Scratch   string
	Quiet     bool
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload, as written to the run document.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     bool               `json:"trace"`
	Seconds   float64            `json:"seconds"`
	Scale     float64            `json:"scale"` // share of the issue's sizes each pass ran
	Sizes     map[string]float64 `json:"sizes"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	Metrics   map[string]value   `json:"metrics"`
	// CPUWallRatio is CPU time ÷ wall time of the measured phases. The
	// closed loops are CPU-bound, so a run that reads well below the
	// workload's usual ratio was held up by the shared host.
	CPUWallRatio float64 `json:"cpu_wall_ratio"`
	MeasuredS    float64 `json:"measured_s"`
	// HostFactor is how much slower than nominal the host ran around the
	// set-up of the measured pass (host.go), 1 where set-up is not
	// calibrated; that pass's set-up took setup_s × HostFactor seconds on
	// the wall.
	HostFactor float64 `json:"host_factor"`
}

// runPass runs the workload once on a fresh system and folds the pass's
// counts and errors into res.
func runPass(def workloadDef, o runOpts, res *result, scale float64, traced, setupOnly bool) *passCtx {
	c := &passCtx{
		seed: def.inputSeed(o.Seed), scale: scale, setupOnly: setupOnly, scratchRoot: o.Scratch, calibrate: def.CalibrateSetup,
		m: map[string]float64{}, sizes: map[string]float64{},
	}
	if traced {
		c.rec, c.ops = newRecorder(), &opLog{}
	}
	if err := def.Run(c); err != nil {
		c.failf("%v", err)
	}
	if c.scratchDir != "" {
		if err := os.RemoveAll(c.scratchDir); err != nil {
			c.failf("%v", err)
		}
	}
	res.Attempted += c.attempted
	res.Failed += c.failed
	res.Errors = append(res.Errors, c.errs...)
	res.Sizes = c.sizes
	if def.Inputs != 0 {
		res.Sizes["input_seed"] = float64(c.seed)
	}
	if !o.Quiet {
		fmt.Fprintf(os.Stderr, "%s seed=%d traced=%v setup-only=%v: setup %.3fs (host factor %.2f) measured %.3fs msgs/s %.0f\n",
			def.Name, c.seed, traced, setupOnly, c.m["setup_s"], c.host, c.measured.Seconds(), c.m["msgs_per_s"])
	}
	return c
}

// runWorkload is one run. Untraced, it measures one pass sized for
// --seconds and reports the end-to-end metrics. Traced, it splits --seconds
// between an untraced and a traced pass of the same seed and size, requires
// the two to produce the same outputs, replays the recorded submits into
// the workload's layers, and reports the per-layer metrics.
func runWorkload(def workloadDef, o runOpts) result {
	res := result{
		Workload: def.Name, Seed: o.Seed, Trace: o.Trace, Seconds: o.Seconds,
		Scale: o.Seconds / def.FullSeconds, Metrics: map[string]value{},
	}
	var m map[string]float64
	var measured *passCtx
	if !o.Trace {
		var setups []float64
		for i := 1; i < setupRepeats; i++ {
			c := runPass(def, o, &res, res.Scale, false, true)
			setups = append(setups, c.m["setup_s"])
			// What a discarded system leaves behind must not count
			// towards the measured one's peak.
			debug.FreeOSMemory()
		}
		measured = runPass(def, o, &res, res.Scale, false, false)
		m = measured.m
		m["setup_s"] = median(append(setups, m["setup_s"]))
		m["peak_rss_mb"] = peakRSSMB()
		m["failed_share"] = float64(res.Failed) / math.Max(float64(res.Attempted), 1)
	} else {
		res.Scale /= 2
		plain := runPass(def, o, &res, res.Scale, false, false)
		debug.FreeOSMemory()
		measured = runPass(def, o, &res, res.Scale, true, false)
		if plain.fingerprint != measured.fingerprint {
			res.Errors = append(res.Errors, fmt.Sprintf("traced and untraced passes of seed %d differ:\n  untraced %s\n  traced   %s",
				o.Seed, plain.fingerprint, measured.fingerprint))
		}
		m = measured.m
		if a := plain.m["msgs_per_s"]; a > 0 {
			m["trace.overhead_pct"] = 100 * (1 - m["msgs_per_s"]/a)
		}
		// End-to-end metrics are measured with tracing off, also the ones
		// this run reports beside the per-layer ones.
		for _, d := range endToEnd {
			if d.Ungated {
				m[d.Name] = plain.m[d.Name]
			}
		}
		debug.FreeOSMemory()
		if err := runReplays(def, o, res.Scale, measured.ops.msgs, m); err != nil {
			res.Errors = append(res.Errors, fmt.Sprintf("replay: %v", err))
		}
		if def.Name == wWireIngest {
			// What the wire adds per message: the end-to-end cost minus
			// the cost of handing the same messages to the cluster direct.
			m["wire.self_cpu_us_per_msg"] = plain.m["cpu_us_per_msg"] - m["livenet.submit_ns_per_msg"]/1e3
			m["wire.self_allocs_per_msg"] = plain.m["allocs_per_msg"] - m["livenet.submit_allocs_per_msg"]
		}
		if o.SpansPath != "" {
			if err := writeSpans(o.SpansPath, measured.rec.snapshot()); err != nil {
				res.Errors = append(res.Errors, fmt.Sprintf("write spans: %v", err))
			}
		}
	}
	res.MeasuredS = measured.measured.Seconds()
	res.HostFactor = measured.host
	res.CPUWallRatio = measured.cpu.Seconds() / math.Max(res.MeasuredS, 1e-9)

	for _, d := range runDefs(o.Trace) {
		if !d.on(def.Name) {
			continue
		}
		v, ok := m[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			res.Errors = append(res.Errors, fmt.Sprintf("metric %s was not measured", d.Name))
			v = 0
		}
		res.Metrics[d.Name] = value{v, d.Unit}
	}
	if res.Attempted == 0 {
		res.Errors = append(res.Errors, "nothing was measured")
	}
	res.Correct = len(res.Errors) == 0
	return res
}

// print lists every metric of the result by name with its unit.
func (res result) print() {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("# %s seed=%d trace=%v scale=%.4g measured=%.2fs cpu/wall=%.2f host-factor=%.2f\n",
		res.Workload, res.Seed, res.Trace, res.Scale, res.MeasuredS, res.CPUWallRatio, res.HostFactor)
	for _, n := range names {
		v := res.Metrics[n]
		fmt.Printf("%-18s %-38s %16.6g %s\n", res.Workload, n, v.Value, v.Unit)
	}
	for _, e := range res.Errors {
		fmt.Printf("%-18s INCORRECT %s\n", res.Workload, e)
	}
}
