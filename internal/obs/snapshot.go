package obs

import "sort"

// SnapshotVersion is the schema version stamped on every exported snapshot.
// Consumers (mailctl, the wire status op, BENCH_*.json tooling) can key
// rendering decisions on it when the schema evolves.
//
// Version history:
//
//	1 — counters/gauges/histograms as flat name→value maps.
//	2 — adds the wire-transport instruments (wire_bytes_in/wire_bytes_out
//	    counters, lat_wire_decode histogram). Purely additive: the maps and
//	    their encodings are unchanged, so v1 consumers decode v2 snapshots
//	    as-is and v2 consumers treat the absence of the wire keys as a v1
//	    producer.
const SnapshotVersion = 2

// Snapshot is a consistent, versioned copy of a registry's instruments,
// JSON-exportable as-is and renderable as the repository's aligned-text/CSV
// tables — the same registry feeds the paper's §4 tables and the machine-
// readable exports.
type Snapshot struct {
	Version    int                          `json:"version"`
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// CounterTable renders counters and gauges as one aligned table, sorted by
// name (gauges are suffixed "(gauge)" in the name column).
func (s Snapshot) CounterTable(title string) *Table {
	t := NewTable(title, "name", "value")
	for _, n := range sortedKeys(s.Counters) {
		t.AddRow(n, s.Counters[n])
	}
	for _, n := range sortedKeys(s.Gauges) {
		t.AddRow(n+" (gauge)", s.Gauges[n])
	}
	return t
}

// LatencyTable renders every histogram as one row of count/mean/p50/p95/p99/
// max, sorted by name. Values are divided by scale (e.g. 1e6 for ns→ms,
// sim.Unit for microticks→paper units); unit labels the columns. scale ≤ 0
// means 1.
func (s Snapshot) LatencyTable(title string, scale float64, unit string) *Table {
	if scale <= 0 {
		scale = 1
	}
	t := NewTable(title, "histogram", "count",
		"mean ("+unit+")", "p50 ("+unit+")", "p95 ("+unit+")", "p99 ("+unit+")", "max ("+unit+")")
	for _, n := range sortedKeys(s.Histograms) {
		h := s.Histograms[n]
		t.AddRow(n, h.Count, h.Mean/scale, h.P50/scale, h.P95/scale, h.P99/scale, h.Max/scale)
	}
	return t
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
