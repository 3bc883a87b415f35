// Command bench is largemail's one fixed benchmark: seven named workloads
// over the deployable wire path and the simulated mail paths, each printing
// its end-to-end metrics (tracing off) or its per-layer metrics (a second,
// traced run of the same seed), checking that the outputs are correct, and
// exiting non-zero when they are not. BENCHMARK.json at the repository root
// is its contract with the driver; README.md explains the workloads, the
// metrics and how they interact.
//
//	bash bench/run.sh --workload sim_deliver --seed 1 --seconds 8 --trace 0
//	bash bench/run.sh -workload all -seed 1 -o run.json
//	bash bench/run.sh compare old.json new.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
)

// The layers on each workload's path, in the order their replays run (a
// later one may subtract an earlier one's result).
var (
	wireReplays      = []replay{replayWire, replayMailstore, replayDurableStore, replayLivenet, replayTracer, replayHistogram}
	simDriverReplays = []replay{replayMailstore, replayDirectory, replaySimKernel, replayTracer, replayHistogram, replayAssign}
	roamingReplays   = []replay{replayLocind, replaySimKernel, replayTracer, replayHistogram}
	attrReplays      = []replay{replayMailstore, replayTermIndex, replayBroadcast, replaySketchAttr, replaySimKernel, replayHistogram}
)

var workloads = []workloadDef{
	{Name: wWireIngest, FullSeconds: 11, Pop: &wirePop, Batch: ingestBatch, Run: runWireIngest, Replays: wireReplays,
		Why: "closed loop, write-heavy: binary tbatch frames of 16 x 512 B at pipeline depth 8 into 64 durable livenet servers; codec, work pool, submit, deposit and WAL append do the work, reads are 1 in 64"},
	{Name: wWireMixed, FullSeconds: 34, Pop: &wirePop, Run: runWireMixed, Replays: wireReplays,
		Why: "open loop, reads beside writes: single frames at 3000-12000 submits/s, one getmail per recipient per ack plus 3 empty polls per submit; latency below saturation, then unpaced to find the knee"},
	{Name: wSimDeliver, FullSeconds: 14, Pop: &simPop, Run: runSimDriver(wSimDeliver), Replays: simDriverReplays, CalibrateSetup: true,
		Why: "the audited delivery core on netsim at 1M users x 64 servers, retrieval only in the final drain: server submit, route, relay, deposit, sim kernel; wire, WAL and livenet idle"},
	{Name: wSimPoll, FullSeconds: 6.5, Pop: &simPop, Run: runSimDriver(wSimPoll), Replays: simDriverReplays, CalibrateSetup: true,
		Why: "same layers as sim_deliver used the other way: a retrieval sweep every 4 ticks, so most CPU is GetMail polling empty mailboxes; a delivery gain that slows polling shows here"},
	{Name: wSimFaults, FullSeconds: 9, Pop: &simPop, Run: runSimDriver(wSimFaults), Replays: simDriverReplays, Inputs: faultInputs, CalibrateSetup: true,
		Why: "relay batching (16 per envelope) under a seeded schedule of crashes, latency, link faults and drops: retry, split, fail-over walks and recovery, where the no-loss auditors can move"},
	{Name: wSimRoaming, FullSeconds: 9, Pop: &simPop, Run: runSimRoaming, Replays: roamingReplays, CalibrateSetup: true,
		Why: "location-independent access: locind location index, login and consultation traffic with a live rehash every 7 ticks; bypasses internal/server entirely"},
	{Name: wSimAttr, FullSeconds: 4.5, Pop: &attrPop, Run: runSimAttr, Replays: attrReplays, CalibrateSetup: true,
		Why: "attribute broadcast: tree distribution with convergecast and sketch-pruned content queries against a populated term index, 100k users x 16 servers; mailstore term search dominates"},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// meta is the run metadata every output document carries.
type meta struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Commit     string `json:"commit"`
}

func readMeta() meta {
	m := meta{
		CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, Commit: "unknown",
	}
	if buf, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(buf), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	// The build stamps the commit when the source tree is a git checkout.
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m.Commit = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if dirty && m.Commit != "unknown" {
			m.Commit += "+dirty"
		}
	}
	return m
}

// document is what -o writes and compare reads: the results of any number
// of runs made by one build on one machine.
type document struct {
	Meta    meta     `json:"meta"`
	Results []result `json:"results"`
}

func readDocument(path string) (document, error) {
	var doc document
	buf, err := os.ReadFile(path)
	if err != nil {
		return doc, err
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		return doc, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

// appendResult adds res to the document at path, creating it if need be.
// Several runs of a workload in one document are what gives compare a
// run-to-run spread; runs of another build or machine belong in another
// document.
func appendResult(path string, res result) error {
	doc, err := readDocument(path)
	switch {
	case errors.Is(err, os.ErrNotExist):
		doc.Meta = readMeta()
	case err != nil:
		return err
	case doc.Meta != readMeta():
		return fmt.Errorf("%s holds runs of another build or machine (%+v); write this one to a new file", path, doc.Meta)
	}
	doc.Results = append(doc.Results, res)
	buf, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// lastLine is the one JSON object the driver reads: the metrics of
// BENCHMARK.json — every end-to-end one with tracing off, every per-layer
// one with tracing on — and nothing else.
func (res result) lastLine() string {
	metrics := map[string]value{}
	for _, d := range runDefs(res.Trace) {
		if d.listed() && (res.Trace || !d.Ungated) {
			metrics[d.Name] = res.Metrics[d.Name]
		}
	}
	attempted := res.Attempted
	if attempted < 1 {
		attempted = 1
	}
	buf, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, attempted, res.Failed, metrics})
	if err != nil {
		panic(err) // plain numbers and strings always encode
	}
	return string(buf)
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(code)
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var o runOpts
	var trace int
	var out, cpuProfile, memProfile string
	flag.StringVar(&o.Workload, "workload", "all", "workload to run, or all")
	flag.Int64Var(&o.Seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&o.Seconds, "seconds", 8, "how long to measure: every count of the workload is sized for a measured phase of about this length")
	flag.IntVar(&trace, "trace", 0, "1 = traced run: per-layer metrics, spans, replays, and the tracing overhead")
	flag.StringVar(&out, "o", "", "add the run (metadata, sizes, every metric) to the document in this file")
	flag.StringVar(&o.SpansPath, "spans", "", "traced run: write the spans here, one JSON object per line")
	flag.StringVar(&cpuProfile, "cpuprofile", "", "write a CPU profile of the run here")
	flag.StringVar(&memProfile, "memprofile", "", "write a heap profile taken at the end of the run here")
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(2, "unexpected argument %q", flag.Arg(0))
	}
	if trace != 0 && trace != 1 {
		fatal(2, "-trace wants 0 or 1")
	}
	o.Trace = trace == 1
	if o.Seconds <= 0 {
		fatal(2, "-seconds must be positive")
	}
	// Durable stores live inside the working directory while a pass runs,
	// under the name .gitignore lists.
	o.Scratch = filepath.Join(".bench_build", "scratch")

	if o.Workload == "all" {
		// Each workload runs untraced and then traced, each in a fresh
		// child process, so heap state and peak RSS do not leak from one
		// to the next.
		exe, err := os.Executable()
		if err != nil {
			fatal(1, "%v", err)
		}
		ok := true
		for _, w := range workloads {
			for _, tr := range []string{"0", "1"} {
				cmd := exec.Command(exe, "-workload", w.Name, "-seed", fmt.Sprint(o.Seed),
					"-seconds", fmt.Sprint(o.Seconds), "-trace", tr, "-o", out)
				cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
				if err := cmd.Run(); err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s -trace %s: %v\n", w.Name, tr, err)
					ok = false
				}
			}
		}
		if !ok {
			fatal(1, "a workload failed")
		}
		return
	}

	def, found := findWorkload(o.Workload)
	if !found {
		fatal(2, "unknown workload %q", o.Workload)
	}
	if cpuProfile != "" {
		f, err := os.Create(cpuProfile)
		if err != nil {
			fatal(1, "%v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(1, "%v", err)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}
	res := runWorkload(def, o)
	if memProfile != "" {
		f, err := os.Create(memProfile)
		if err != nil {
			fatal(1, "%v", err)
		}
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(1, "%v", err)
		}
		f.Close()
	}
	if out != "" {
		if err := appendResult(out, res); err != nil {
			fatal(1, "%v", err)
		}
	}
	res.print()
	fmt.Println(res.lastLine())
	if !res.Correct {
		pprof.StopCPUProfile()
		os.Exit(1)
	}
}
