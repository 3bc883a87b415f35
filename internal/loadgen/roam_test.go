package loadgen

import (
	"fmt"
	"os"
	"testing"

	"github.com/largemail/largemail/internal/faults"
	"github.com/largemail/largemail/internal/mail"
	"github.com/largemail/largemail/internal/names"
	"github.com/largemail/largemail/internal/obs"
)

// TestMain runs every test of this package on scribbled slots: a one-message
// batch a driver has released is overwritten with a plausible message, so a
// holder that reads a batch it gave back reports mail that was never sent,
// which the auditors catch.
func TestMain(m *testing.M) {
	poison := mail.Stored{
		Message: mail.Message{
			ID:   mail.MessageID{Node: 666, Seq: 666},
			From: names.MustParse("R6.h6.poison"), To: []names.Name{names.MustParse("R6.h6.poison")},
			Subject: "poison", Body: "poison",
		},
		Read: true,
	}
	mail.AfterRelease = func(slot *mail.Stored) { *slot = poison }
	os.Exit(m.Run())
}

func newRoamDriver(t *testing.T, cfg RoamConfig) *RoamDriver {
	t.Helper()
	d, err := NewRoamDriver(cfg)
	if err != nil {
		t.Fatalf("NewRoamDriver: %v", err)
	}
	return d
}

func TestRoamScenarioFailureFree(t *testing.T) {
	drv := newRoamDriver(t, RoamConfig{
		Seed: 1,
		Pop:  Population{Users: 400, Regions: 2, ServersPerRegion: 3},
	})
	rep := RunRoamScenario(drv,
		Config{Seed: 1, Messages: 200, Sessions: 16},
		// RehashEvery deliberately off-phase with the engine's sweep period
		// so rehashes catch mailboxes with undelivered mail in them. A
		// rehash moves only the users entering or leaving the newest
		// sub-group, so the world is big enough that one of them holds mail.
		RoamScenarioConfig{Seed: 1, roamEvery: 4, roamsPerWave: 6, RehashEvery: 7})
	requireClean(t, rep)
	if rep.Submitted != 200 {
		t.Fatalf("Submitted = %d, want 200", rep.Submitted)
	}
	if rep.Retrievals == 0 {
		t.Fatalf("no retrieval activity: %+v", rep)
	}
	snap := drv.Snapshot()
	// Roaming must actually have been exercised: some deliveries found their
	// recipient away from the primary host and paid the consultation.
	if snap.Counters["consultations"] == 0 {
		t.Fatalf("no consultations — roaming path unexercised: %v", snap.Counters)
	}
	if snap.Counters["notify_roaming"] == 0 {
		t.Fatalf("no roaming alerts: %v", snap.Counters)
	}
	// And the live rehash must have migrated mailboxes underneath the run.
	if snap.Counters["rehash_transfers"] == 0 {
		t.Fatalf("rehash moved nothing: %v", snap.Counters)
	}
	if h, ok := snap.Histograms["lat_roam_resolve"]; !ok || h.Count == 0 {
		t.Fatalf("lat_roam_resolve histogram missing or empty")
	}
	if len(rep.Loads) != drv.Population().TotalServers() {
		t.Fatalf("ServerLoads = %d entries, want %d", len(rep.Loads), drv.Population().TotalServers())
	}
}

// TestRoamScenarioDeterminism: two runs of one seed give the same Report and
// the same Snapshot at full precision, failure-free and under a compiled fault
// schedule.
func TestRoamScenarioDeterminism(t *testing.T) {
	for _, withFaults := range []bool{false, true} {
		t.Run(fmt.Sprintf("faults=%v", withFaults), func(t *testing.T) {
			run := func() (Report, obs.Snapshot) {
				drv := newRoamDriver(t, RoamConfig{
					Seed: 7,
					Pop:  Population{Users: 150, Regions: 2, ServersPerRegion: 3},
				})
				cfg := Config{Seed: 7, Messages: 80, Sessions: 12}
				if withFaults {
					spec := drv.FaultSurface()
					spec.Seed, spec.Ticks = 7, 60
					spec.Crashes, spec.LinkFaults, spec.Latencies, spec.Drops = 3, 2, 2, 2
					sched, err := faults.Compile(spec)
					if err != nil {
						t.Fatalf("Compile: %v", err)
					}
					cfg.Schedule = &sched
				}
				rep := RunRoamScenario(drv, cfg,
					RoamScenarioConfig{Seed: 7, roamEvery: 3, roamsPerWave: 5, RehashEvery: 10})
				return rep, drv.Snapshot()
			}
			a, aSnap := run()
			b, bSnap := run()
			requireClean(t, a)
			requireSameRun(t, a, b, aSnap, bSnap)
		})
	}
}

func TestRoamScenarioWithFaults(t *testing.T) {
	drv := newRoamDriver(t, RoamConfig{
		Seed: 4,
		Pop:  Population{Users: 200, Regions: 2, ServersPerRegion: 3},
	})
	spec := drv.FaultSurface()
	spec.Seed = 4
	spec.Ticks = 60
	spec.Crashes = 3
	spec.LinkFaults = 2
	spec.Latencies = 2
	spec.Drops = 2
	sched, err := faults.Compile(spec)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if len(sched.Events) == 0 {
		t.Fatal("empty fault schedule")
	}
	rep := RunRoamScenario(drv,
		Config{Seed: 4, Messages: 100, Sessions: 16, Schedule: &sched},
		RoamScenarioConfig{Seed: 4, roamEvery: 4, roamsPerWave: 6, RehashEvery: 15})
	// Exactly-once across roams, rehashes AND crash windows: no loss, no
	// duplicate deliveries, no stay-at-home consultations.
	requireClean(t, rep)
	if rep.Submitted != 100 {
		t.Fatalf("Submitted = %d, want 100", rep.Submitted)
	}
}

// TestRoamVsSyntaxMigrationContrast pins E8's architectural contrast: moving
// a user in the location-independent design changes no name and touches no
// mailbox (hash sub-groups are host-independent), while the syntax-directed
// design must rename the user and drain/redirect their mailboxes.
func TestRoamVsSyntaxMigrationContrast(t *testing.T) {
	pop := Population{Users: 40, Regions: 2, ServersPerRegion: 2}

	// Location-independent side: roam u0 to another host in its region.
	rd := newRoamDriver(t, RoamConfig{Seed: 2, Pop: pop})
	rpop := rd.Population()
	if _, err := rd.Submit(1, []int{0}, "hi", "pre-roam mail"); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	rd.Settle()
	target := rpop.HostOf(0) + 1 // same region: hosts-per-region > 1
	if err := rd.Roam(0, target); err != nil {
		t.Fatalf("Roam: %v", err)
	}
	rd.Settle()
	if rd.CurrentHost(0) != target {
		t.Fatalf("CurrentHost = %d, want %d", rd.CurrentHost(0), target)
	}
	if _, err := rd.Submit(1, []int{0}, "hi", "post-roam mail"); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	rd.Settle()
	res := rd.Retrieve(0)
	if len(res.IDs) != 2 {
		t.Fatalf("retrieved %d messages across the roam, want 2", len(res.IDs))
	}
	snap := rd.Snapshot()
	if n := snap.Counters["rehash_transfers"]; n != 0 {
		t.Fatalf("roaming moved %d mailboxes — must be zero", n)
	}

	// Syntax-directed side: the same move is a rename + drain + redirect.
	sd := newSimDriver(t, SimConfig{Seed: 2, Pop: pop})
	if _, err := sd.Submit(1, []int{0}, "hi", "pre-migration mail"); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	sd.Settle()
	before := sd.UserName(0)
	if _, err := sd.MigrateUser(0, target); err != nil {
		t.Fatalf("MigrateUser: %v", err)
	}
	after := sd.UserName(0)
	if after == before {
		t.Fatalf("syntax-directed migration did not rename %v", before)
	}
	if after.User != before.User {
		t.Fatalf("rename changed the user token: %v -> %v", before, after)
	}
}
