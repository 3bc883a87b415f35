package main

import (
	"math"
	"slices"
	"sort"
)

// The seven workloads. Names are fixed: later issues refer to them.
const (
	wWireIngest = "wire_ingest"
	wWireMixed  = "wire_mixed"
	wSimDeliver = "sim_deliver"
	wSimPoll    = "sim_poll"
	wSimFaults  = "sim_relay_faults"
	wSimRoaming = "sim_roaming"
	wSimAttr    = "sim_attr"
)

// How compare decides that an end-to-end metric got worse.
const (
	ruleBound    = ""         // it worsened by more than Bound
	ruleStep     = "step"     // it dropped at all (a ladder step)
	ruleIncrease = "increase" // it rose at all
)

// metricDef describes one metric the benchmark prints.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the old value by which an end-to-end metric may
	// get worse before compare reports it as worse. For the metrics every
	// workload reports it is also the bound in BENCHMARK.json.
	Bound float64
	// On lists the workloads that report the metric; nil means every one.
	// Only those can be listed in BENCHMARK.json, whose contract wants each
	// metric from each workload.
	On   []string
	Rule string
	// Ungated marks an end-to-end metric that does not repeat within any bound
	// the contract allows on the shared host (README.md, "Bounds"): runs of one
	// commit read up to 26 % apart in it, and so do the medians of ten runs
	// taken an hour apart. As the issue lays down, such a metric is demoted to
	// the per-layer set and not given a wider bound: BENCHMARK.json lists it
	// under per_layer, the traced run reports it from its tracing-off pass,
	// and compare still judges it against Bound.
	Ungated bool
}

func (d metricDef) on(workload string) bool {
	return d.On == nil || slices.Contains(d.On, workload)
}

// listed reports whether BENCHMARK.json can list the metric: its contract
// wants each metric from each workload, and a bound that is a share.
func (d metricDef) listed() bool { return d.On == nil && d.Rule == ruleBound }

// runDefs returns the metrics a run reports: untraced, the end-to-end ones;
// traced, the per-layer ones and the end-to-end ones demoted to them.
func runDefs(trace bool) []metricDef {
	if !trace {
		return endToEnd
	}
	defs := append([]metricDef(nil), perLayer...)
	for _, d := range endToEnd {
		if d.Ungated {
			defs = append(defs, d)
		}
	}
	return defs
}

// endToEnd is what a user of the mail system would see. "msg" is one
// acknowledged message on the wire workloads, one recipient copy deposited
// and retrieved on the sim workloads, and one completed query on sim_attr.
//
// The bounds of the time and memory metrics are as wide as the contract
// allows because of the host, not the benchmark: on the shared 2-core
// sandbox a register-only loop reads 8 % apart between windows seconds apart,
// and runs of one workload 5–26 % between their quartiles (README.md,
// "Bounds"). The two rates do not hold even that and are Ungated.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "msgs_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, Ungated: true},
	{Name: "cpu_us_per_msg", Unit: "us", Better: "lower", Bound: 0.25, Ungated: true},
	{Name: "allocs_per_msg", Unit: "count", Better: "lower", Bound: 0.15},
	{Name: "alloc_bytes_per_msg", Unit: "B", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "queries_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, On: onAttr},
	{Name: "retained_bytes_per_msg", Unit: "B", Better: "lower", Bound: 0.05, On: onIngest},
	{Name: "recovery_s", Unit: "s", Better: "lower", Bound: 0.15, On: onIngest},
	{Name: "wal_bytes_per_user_byte", Unit: "ratio", Better: "lower", Bound: 0.02, On: onIngest},
	{Name: "submit_ack_p50_us", Unit: "us", Better: "lower", Bound: 0.10, On: onMixed},
	{Name: "deliver_p50_us", Unit: "us", Better: "lower", Bound: 0.10, On: onMixed},
	{Name: "getmail_p50_us", Unit: "us", Better: "lower", Bound: 0.10, On: onMixed},
	{Name: "max_rate_ok", Unit: "1/s", Better: "higher", On: onMixed, Rule: ruleStep},
	{Name: "failed_share", Unit: "share", Better: "lower", Rule: ruleIncrease},
}

var (
	wireWorkloads      = []string{wWireIngest, wWireMixed}
	simDriverWorkloads = []string{wSimDeliver, wSimPoll, wSimFaults}
	simEngineWorkloads = []string{wSimDeliver, wSimPoll, wSimFaults, wSimRoaming}
	simWorkloads       = []string{wSimDeliver, wSimPoll, wSimFaults, wSimRoaming, wSimAttr}
	storeWorkloads     = []string{wWireIngest, wWireMixed, wSimDeliver, wSimPoll, wSimFaults, wSimAttr} // locind keeps its own mailboxes
	tracerWorkloads    = []string{wWireIngest, wWireMixed, wSimDeliver, wSimPoll, wSimFaults, wSimRoaming}
	onRoaming, onAttr  = []string{wSimRoaming}, []string{wSimAttr}
	onIngest, onMixed  = []string{wWireIngest}, []string{wWireMixed}
)

// perLayer metrics are measured in the traced run, by the workloads whose
// path runs through the layer (On): replays of the workload's recorded
// submits into the layer's public functions, spans around the calls the
// workload makes, and counts the program keeps. The three deployments share
// no product layer but obs, so BENCHMARK.json, which wants every listed
// metric from every workload, can list only the On == nil ones.
var perLayer = []metricDef{
	// wire
	{Name: "wire.codec_ns_per_msg", Unit: "ns", Better: "lower", On: wireWorkloads},
	{Name: "wire.codec_allocs_per_msg", Unit: "count", Better: "lower", On: wireWorkloads},
	{Name: "wire.frame_bytes_per_msg", Unit: "B", Better: "lower", On: wireWorkloads},
	{Name: "wire.rtt_p50_us", Unit: "us", Better: "lower", On: wireWorkloads},
	{Name: "wire.self_cpu_us_per_msg", Unit: "us", Better: "lower", On: onIngest},
	{Name: "wire.self_allocs_per_msg", Unit: "count", Better: "lower", On: onIngest},
	{Name: "wire.submit_ack_p99_us", Unit: "us", Better: "lower", On: onMixed},
	{Name: "wire.deliver_p99_us", Unit: "us", Better: "lower", On: onMixed},
	{Name: "wire.getmail_p99_us", Unit: "us", Better: "lower", On: onMixed},
	{Name: "wire.gen_late_max_ms", Unit: "ms", Better: "lower", On: onMixed},
	{Name: "wire.deliver_p50_us.r3000", Unit: "us", Better: "lower", On: onMixed},
	{Name: "wire.deliver_p50_us.r6000", Unit: "us", Better: "lower", On: onMixed},
	{Name: "wire.deliver_p50_us.r9000", Unit: "us", Better: "lower", On: onMixed},
	{Name: "wire.deliver_p50_us.r12000", Unit: "us", Better: "lower", On: onMixed},
	// livenet
	{Name: "livenet.submit_ns_per_msg", Unit: "ns", Better: "lower", On: wireWorkloads},
	{Name: "livenet.submit_allocs_per_msg", Unit: "count", Better: "lower", On: wireWorkloads},
	{Name: "livenet.getmail_ns_per_op", Unit: "ns", Better: "lower", On: wireWorkloads},
	{Name: "livenet.getmail_allocs_per_op", Unit: "count", Better: "lower", On: wireWorkloads},
	{Name: "livenet.server_call_ns", Unit: "ns", Better: "lower", On: wireWorkloads},
	{Name: "livenet.directory_authority_ns", Unit: "ns", Better: "lower", On: wireWorkloads},
	{Name: "livenet.directory_authority_allocs", Unit: "count", Better: "lower", On: wireWorkloads},
	{Name: "livenet.retained_bytes_per_msg", Unit: "B", Better: "lower", On: wireWorkloads},
	{Name: "livenet.self_ns_per_msg", Unit: "ns", Better: "lower", On: wireWorkloads},
	{Name: "livenet.spool_depth_max", Unit: "count", Better: "lower", On: wireWorkloads},
	// mailstore (+ mail)
	{Name: "mailstore.deposit_ns", Unit: "ns", Better: "lower", On: storeWorkloads},
	{Name: "mailstore.deposit_allocs", Unit: "count", Better: "lower", On: storeWorkloads},
	{Name: "mailstore.drain_ns", Unit: "ns", Better: "lower", On: storeWorkloads},
	{Name: "mailstore.drain_allocs", Unit: "count", Better: "lower", On: storeWorkloads},
	{Name: "mailstore.check_empty_ns", Unit: "ns", Better: "lower", On: storeWorkloads},
	{Name: "mailstore.retained_bytes_per_msg", Unit: "B", Better: "lower", On: storeWorkloads},
	{Name: "mailstore.durable_deposit_ns", Unit: "ns", Better: "lower", On: wireWorkloads},
	{Name: "mailstore.wal_append_ns_per_msg", Unit: "ns", Better: "lower", On: wireWorkloads},
	{Name: "mailstore.wal_bytes_per_msg", Unit: "B", Better: "lower", On: wireWorkloads},
	{Name: "mailstore.recovery_records_per_s", Unit: "1/s", Better: "higher", On: wireWorkloads},
	{Name: "mailstore.wal_compactions", Unit: "count", Better: "lower", On: wireWorkloads},
	{Name: "mailstore.wal_syncs", Unit: "count", Better: "lower", On: wireWorkloads},
	{Name: "mailstore.search_terms_ns", Unit: "ns", Better: "lower", On: onAttr},
	{Name: "mailstore.index_add_ns", Unit: "ns", Better: "lower", On: onAttr},
	{Name: "mailstore.sketch_ns", Unit: "ns", Better: "lower", On: onAttr},
	// obs
	{Name: "obs.tracer_stamp_ns", Unit: "ns", Better: "lower", On: tracerWorkloads},
	{Name: "obs.tracer_stamp_allocs", Unit: "count", Better: "lower", On: tracerWorkloads},
	{Name: "obs.tracer_retained_bytes_per_msg", Unit: "B", Better: "lower", On: tracerWorkloads},
	{Name: "obs.histogram_observe_ns", Unit: "ns", Better: "lower"},
	// server, client
	{Name: "server.directory_resolve_ns", Unit: "ns", Better: "lower", On: simDriverWorkloads},
	{Name: "server.submit_ns_per_msg", Unit: "ns", Better: "lower", On: simDriverWorkloads},
	{Name: "server.step_ns_per_copy", Unit: "ns", Better: "lower", On: simDriverWorkloads},
	{Name: "server.relay_envelopes_per_copy", Unit: "count", Better: "lower", On: simDriverWorkloads},
	{Name: "server.msgs_per_envelope", Unit: "count", Better: "higher", On: simDriverWorkloads},
	{Name: "server.batch_splits", Unit: "count", Better: "lower", On: simDriverWorkloads},
	{Name: "server.deposit_reroutes", Unit: "count", Better: "lower", On: simDriverWorkloads},
	{Name: "client.retrieve_ns_per_op", Unit: "ns", Better: "lower", On: simDriverWorkloads},
	{Name: "client.polls_per_retrieval", Unit: "count", Better: "lower", On: simEngineWorkloads},
	// sim, netsim
	{Name: "sim.event_ns", Unit: "ns", Better: "lower", On: simWorkloads},
	{Name: "netsim.send_ns", Unit: "ns", Better: "lower", On: simWorkloads},
	{Name: "sim.events_per_copy", Unit: "count", Better: "lower", On: simEngineWorkloads},
	{Name: "netsim.msgs_per_copy", Unit: "count", Better: "lower", On: simEngineWorkloads},
	// locind
	{Name: "locind.rehash_ns_per_moved", Unit: "ns", Better: "lower", On: onRoaming},
	{Name: "locind.deliver_ns", Unit: "ns", Better: "lower", On: onRoaming},
	{Name: "locind.consultations_per_copy", Unit: "count", Better: "lower", On: onRoaming},
	{Name: "locind.deposit_transfers_per_copy", Unit: "count", Better: "lower", On: onRoaming},
	{Name: "locind.rehash_moved", Unit: "count", Better: "lower", On: onRoaming},
	// broadcast, sketch, attr
	{Name: "broadcast.distribute_ns_per_query", Unit: "ns", Better: "lower", On: onAttr},
	{Name: "broadcast.refresh_sketches_ns", Unit: "ns", Better: "lower", On: onAttr},
	{Name: "broadcast.visited_nodes_per_query", Unit: "count", Better: "lower", On: onAttr},
	{Name: "broadcast.pruned_nodes_per_query", Unit: "count", Better: "higher", On: onAttr},
	{Name: "broadcast.visit_ratio", Unit: "ratio", Better: "lower", On: onAttr},
	{Name: "broadcast.partial_share", Unit: "share", Better: "lower", On: onAttr},
	{Name: "sketch.probe_ns", Unit: "ns", Better: "lower", On: onAttr},
	{Name: "sketch.add_remove_ns", Unit: "ns", Better: "lower", On: onAttr},
	{Name: "sketch.fp_share", Unit: "share", Better: "lower", On: onAttr},
	{Name: "attr.parse_plan_ns", Unit: "ns", Better: "lower", On: onAttr},
	{Name: "attr.match_ns", Unit: "ns", Better: "lower", On: onAttr},
	// assign: the balancer the sim drivers run at set-up
	{Name: "assign.balance_2k_ms", Unit: "ms", Better: "lower", On: simDriverWorkloads},
	{Name: "assign.moves", Unit: "count", Better: "lower", On: simDriverWorkloads},
	// harness: a change here is a change to the instrument, not the product
	{Name: "loadgen.self_share", Unit: "share", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

// median returns the middle of vs (mean of the two middles when even), or
// NaN for an empty slice. vs is not modified.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1) of sorted vs:
// the smallest sample with at least q of the samples at or below it.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// quartiles returns the first and third quartile of vs the way Python's
// statistics.quantiles(vs, n=4) does (the "exclusive" method), because that
// is the spread the acceptance check computes. Needs at least two values.
func quartiles(vs []float64) (q1, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 { // i-th of 4 cuts
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// spread is the distance between the quartiles as a share of the median; 0
// when there are too few values to have quartiles.
func spread(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	q1, q3 := quartiles(vs)
	m := median(vs)
	if m == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / m)
}
