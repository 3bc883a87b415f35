package loadgen

import (
	"testing"

	"github.com/largemail/largemail/internal/faults"
)

func newWireDriver(t *testing.T, cfg WireConfig) *WireDriver {
	t.Helper()
	drv, err := NewWireDriver(cfg)
	if err != nil {
		t.Fatalf("NewWireDriver: %v", err)
	}
	t.Cleanup(drv.Close)
	return drv
}

// TestEngineWireBothProtos runs the audited engine through the full TCP wire
// path: same no-loss / no-duplicate / trace-completeness bar as the
// in-process transports. The wire once had a text framing beside the binary
// one; the name and the "binary" subtest are kept, frames being the only
// protocol left.
func TestEngineWireBothProtos(t *testing.T) {
	t.Run("binary", func(t *testing.T) {
		drv := newWireDriver(t, WireConfig{Pop: Population{Users: 60, Regions: 2, ServersPerRegion: 2}})
		eng := New(drv, Config{Seed: 3, Messages: 40, Sessions: 8, Ticks: 20})
		rep := eng.Run()
		requireClean(t, rep)
		if rep.Submitted != 40 {
			t.Fatalf("Submitted = %d, want 40", rep.Submitted)
		}
		if len(rep.Loads) != 4 {
			t.Fatalf("ServerLoads = %d entries, want 4", len(rep.Loads))
		}
		// The wire instruments saw the traffic.
		snap := drv.Snapshot()
		if snap.Counters["wire_bytes_in"] == 0 || snap.Counters["wire_bytes_out"] == 0 {
			t.Fatalf("wire byte counters empty: in=%d out=%d",
				snap.Counters["wire_bytes_in"], snap.Counters["wire_bytes_out"])
		}
		if hs := snap.Histograms["lat_wire_decode"]; hs.Count == 0 {
			t.Fatal("lat_wire_decode histogram empty")
		}
	})
}

// TestEngineWireWithFaults: cluster-side crash/drop windows during a wire
// run; the auditors' exactly-once bar must hold end to end.
func TestEngineWireWithFaults(t *testing.T) {
	drv := newWireDriver(t, WireConfig{
		Pop: Population{Users: 60, Regions: 2, ServersPerRegion: 3},
	})
	spec := drv.FaultSurface()
	spec.Seed = 11
	spec.Ticks = 40
	spec.Crashes = 2
	spec.Drops = 2
	sched, err := faults.Compile(spec)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	eng := New(drv, Config{Seed: 11, Messages: 30, Sessions: 6, Schedule: &sched})
	rep := eng.Run()
	requireClean(t, rep)
}
