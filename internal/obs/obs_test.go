package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestRegistryCounterCompat(t *testing.T) {
	r := NewRegistry()
	r.Inc("msgs")
	r.Add("msgs", 4)
	r.Add("bytes", 100)
	r.Add("bytes", -30)
	if got := r.Get("msgs"); got != 5 {
		t.Errorf("msgs = %d, want 5", got)
	}
	if got := r.Get("bytes"); got != 70 {
		t.Errorf("bytes = %d, want 70", got)
	}
	if got := r.Get("missing"); got != 0 {
		t.Errorf("missing = %d, want 0", got)
	}
	snap := r.Counters()
	if len(snap) != 2 {
		t.Errorf("Counters() = %v, want bytes and msgs", snap)
	}
	r.Inc("msgs")
	if snap["msgs"] != 5 {
		t.Error("Counters aliased live counters")
	}
	r.Reset()
	if r.Get("msgs") != 0 || len(r.Counters()) != 0 {
		t.Error("Reset did not clear counters")
	}
}

func TestRegistryZeroValueUsable(t *testing.T) {
	var r Registry
	r.Inc("a")
	r.Gauge("g").Set(7)
	r.Histogram("h", nil).Observe(3)
	if r.Get("a") != 1 || r.Gauge("g").Value() != 7 {
		t.Error("zero-value registry broken")
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("depth")
	g.Set(10)
	g.Add(-3)
	if g.Value() != 7 {
		t.Errorf("gauge = %d, want 7", g.Value())
	}
	if r.Gauge("depth") != g {
		t.Error("Gauge did not return the same instrument")
	}
}

func TestSnapshotStructureAndJSON(t *testing.T) {
	r := NewRegistry()
	r.Inc("deposits")
	r.Gauge("spool_depth").Set(2)
	h := r.Histogram("lat_e2e", []float64{10, 100})
	h.Observe(5)
	h.Observe(50)
	s := r.Snapshot()
	if s.Version != SnapshotVersion {
		t.Errorf("version = %d, want %d", s.Version, SnapshotVersion)
	}
	if s.Counters["deposits"] != 1 || s.Gauges["spool_depth"] != 2 {
		t.Errorf("snapshot = %+v", s)
	}
	if hs := s.Histograms["lat_e2e"]; hs.Count != 2 || hs.Sum != 55 {
		t.Errorf("histogram snapshot = %+v", hs)
	}
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Version != s.Version || back.Histograms["lat_e2e"].Count != 2 {
		t.Errorf("JSON round trip = %+v", back)
	}
}

func TestSnapshotTables(t *testing.T) {
	r := NewRegistry()
	r.Add("b_counter", 2)
	r.Add("a_counter", 1)
	r.Gauge("depth").Set(9)
	r.Histogram("lat_deposit", nil).Observe(1000)
	s := r.Snapshot()

	ct := s.CounterTable("counters").Render()
	if !strings.Contains(ct, "a_counter") || !strings.Contains(ct, "depth (gauge)") {
		t.Errorf("counter table:\n%s", ct)
	}
	// Sorted: a_counter before b_counter.
	if strings.Index(ct, "a_counter") > strings.Index(ct, "b_counter") {
		t.Error("counter table not sorted")
	}
	lt := s.LatencyTable("latencies", 1000, "u")
	out := lt.Render()
	if !strings.Contains(out, "lat_deposit") || !strings.Contains(out, "p95 (u)") {
		t.Errorf("latency table:\n%s", out)
	}
	if rows := lt.Rows(); rows[0][2] != "1" { // mean 1000/1000 = 1 unit
		t.Errorf("scaled mean = %q, want 1", rows[0][2])
	}
	if !strings.Contains(lt.CSV(), "lat_deposit") {
		t.Error("CSV rendering lost the histogram row")
	}
}

// TestRegistryConcurrent hammers every instrument type from many goroutines;
// run under -race this is the concurrency-safety check the live transport
// relies on.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const per = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Inc("shared")
				r.Counter("own").Add(1)
				r.Gauge("depth").Add(1)
				r.Histogram("lat", nil).Observe(float64(i % 100))
				if i%64 == 0 {
					_ = r.Snapshot()
					_ = r.Counters()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Get("shared"); got != workers*per {
		t.Errorf("shared = %d, want %d", got, workers*per)
	}
	if got := r.Gauge("depth").Value(); got != workers*per {
		t.Errorf("depth = %d, want %d", got, workers*per)
	}
	hs := r.Histogram("lat", nil).Snapshot()
	if hs.Count != workers*per {
		t.Errorf("histogram count = %d, want %d", hs.Count, workers*per)
	}
}
