package loadgen

import (
	"fmt"
	"math/rand"
)

// RoamScenarioConfig shapes the roaming workload layered on the engine:
// periodic waves of users moving between hosts inside their region, with the
// location index's hash modulus rehashed live underneath them.
type RoamScenarioConfig struct {
	Seed int64
	// RoamEvery triggers a roam wave every n ticks (default 5; <0 disables).
	RoamEvery int
	// RoamsPerWave is how many materialized users move per wave (default 8).
	RoamsPerWave int
	// RehashEvery triggers a live Rehash every n ticks (0 disables). The
	// rehashes alternate the moduli 2×servers-per-region + 1 and
	// 2×servers-per-region: a modulus that is a multiple of the server count
	// maps every sub-group to the same server as before, so one must not be.
	RehashEvery int
}

// returnProb is the chance a roamed user moves back to their primary host
// instead of onward.
const returnProb = 0.3

func (sc RoamScenarioConfig) withDefaults() RoamScenarioConfig {
	if sc.RoamEvery == 0 {
		sc.RoamEvery = 5
	}
	if sc.RoamsPerWave <= 0 {
		sc.RoamsPerWave = 8
	}
	return sc
}

// RunRoamScenario runs the engine over a RoamDriver with roam waves and live
// rehashes layered on top, and audits §3.2.2c online: the location-tracking
// design pays delivery overhead (a location consultation) only when the
// recipient is away from their primary host. Any consultation for a
// logged-in user who never roamed is a violation. The excuse set is sticky —
// once a user has roamed, later consultations for them are legitimate even
// after they return (a server may hold a stale location) — so the auditor
// over-excuses roamers rather than ever under-excusing a stay-at-home.
//
// Exactly-once delivery across roams needs no extra machinery here: the
// engine's standard ledger keeps charging every committed message to its
// recipient wherever the recipient's agent happens to be.
func RunRoamScenario(drv *RoamDriver, cfg Config, sc RoamScenarioConfig) Report {
	sc = sc.withDefaults()
	eng := New(drv, cfg)
	rng := rand.New(rand.NewSource(sc.Seed ^ 0x9e3779b97f4a7c15&0x7fffffffffffffff))
	roamed := make(map[int]bool)

	audit := func() {
		for _, ev := range drv.DrainOverheadEvents() {
			if ev.Event != "consult" {
				continue
			}
			if roamed[ev.User] || !drv.LoginOK(ev.User) {
				continue
			}
			eng.Auditors().RecordViolation(ViolationRoamOverhead,
				fmt.Sprintf("u%d: location consultation while at primary host", ev.User))
		}
	}

	pop := drv.Population()
	rehashes := 0
	eng.OnTick = func(tick int) {
		audit()
		if sc.RoamEvery > 0 && tick > 0 && tick%sc.RoamEvery == 0 {
			users := drv.Materialized()
			for i := 0; i < sc.RoamsPerWave && len(users) > 0; i++ {
				u := users[rng.Intn(len(users))]
				if !drv.LoginOK(u) {
					continue
				}
				r := pop.RegionOf(u)
				var target int
				if roamed[u] && rng.Float64() < returnProb {
					target = pop.HostOf(u)
				} else {
					target = r*pop.HostsPerRegion + rng.Intn(pop.HostsPerRegion)
				}
				if target == drv.CurrentHost(u) {
					continue
				}
				// Mark before moving: overhead caused by the move itself
				// (stale-location consultations mid-flight) is legitimate.
				roamed[u] = true
				_ = drv.Roam(u, target) // all-servers-down: retried next wave
			}
		}
		if sc.RehashEvery > 0 && tick > 0 && tick%sc.RehashEvery == 0 {
			rehashes++
			_, _ = drv.Rehash(2*pop.ServersPerRegion + rehashes%2)
		}
	}

	rep := eng.Run()
	audit() // deposits during the settle drain may have consulted
	rep.Ok = eng.Auditors().Ok()
	rep.Violations = eng.Auditors().Counts()
	rep.Examples = eng.Auditors().Violations()
	return rep
}
