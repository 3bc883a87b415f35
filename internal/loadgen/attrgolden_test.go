package loadgen

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/largemail/largemail/internal/faults"
)

var updateAttrGolden = flag.Bool("update-attr-golden", false, "rewrite testdata/attr_*.golden")

// TestAttrScenarioGolden pins two seeded 2 000-user × 8-server runs — one
// failure-free, one under a crash/latency schedule — byte for byte: the full
// AttrReport and the full Snapshot. The goldens were recorded before
// residents were materialised on first touch, so they hold the scenario to
// the order in which the virtual population used to be derived: a changed
// iteration order, a resident built from the wrong index, or a content
// search returning holders in another order all move a count or a quantile
// here. Regenerate (only for an intended behaviour change) with
//
//	go test ./internal/loadgen -run TestAttrScenarioGolden -update-attr-golden
func TestAttrScenarioGolden(t *testing.T) {
	for _, withFaults := range []bool{false, true} {
		name := "attr_clean.golden"
		if withFaults {
			name = "attr_faults.golden"
		}
		t.Run(name, func(t *testing.T) {
			s := newAttrScenario(t, AttrConfig{
				Seed:         9,
				Pop:          Population{Users: 2000, Regions: 2, ServersPerRegion: 4},
				Queries:      30,
				ContentEvery: 3,
				SweepEvery:   12,
			})
			if withFaults {
				spec := s.FaultSurface()
				spec.Seed, spec.Ticks, spec.Crashes, spec.Latencies = 9, 80, 4, 3
				sched, err := faults.Compile(spec)
				if err != nil {
					t.Fatalf("Compile: %v", err)
				}
				s.SetSchedule(&sched)
			}
			rep := s.Run()
			requireAttrClean(t, rep)
			snap, err := s.Snapshot().JSON()
			if err != nil {
				t.Fatal(err)
			}
			got := fmt.Sprintf("%+v\n%s\n", rep, snap)

			path := filepath.Join("testdata", name)
			if *updateAttrGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("golden file missing (run with -update-attr-golden): %v", err)
			}
			if got != string(want) {
				t.Fatalf("attr scenario drifted from %s:\n got: %s\nwant: %s", path, got, want)
			}
		})
	}
}
