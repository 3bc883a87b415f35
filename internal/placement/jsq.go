package placement

import (
	"math/rand"

	"github.com/largemail/largemail/internal/obs"
)

// JSQ is power-of-d-choices placement (Budhiraja–Friedlander): at Place time
// it samples d servers of the user's region, reads their "<label>.qdepth"
// gauges, and makes the least-loaded sample the primary. The rest of the
// authority list comes from the base policy, so failover order and regional
// confinement stay the reference behavior — only the primary choice is
// load-aware.
//
// The d-sample (rather than scanning all servers) is the whole point of the
// policy family: with d=2 the maximum queue length already drops from
// Θ(log n / log log n) to Θ(log log n) while each placement touches O(1)
// state.
type JSQ struct {
	base Policy
	cfg  Config
	rng  *rand.Rand
}

// NewJSQ wraps base with JSQ(d) primary choice. cfg.Gauges must be the
// registry the driver maintains "<label>.qdepth" in.
func NewJSQ(base Policy, cfg Config) *JSQ {
	cfg = cfg.withDefaults()
	return &JSQ{base: base, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed + 0x15b3))}
}

// Name implements Policy.
func (j *JSQ) Name() string { return NameJSQ }

// Place implements Policy.
func (j *JSQ) Place(u User) []int {
	tail := j.base.Place(u)
	if len(tail) == 0 || tail[0] >= j.cfg.World.TotalServers() || j.cfg.Gauges == nil {
		return tail
	}
	r := j.cfg.World.RegionOfSlot(tail[0])
	best := j.pickLeastLoaded(r)
	if best < 0 {
		return tail
	}
	out := make([]int, 0, len(tail))
	out = append(out, best)
	for _, s := range tail {
		if s != best && len(out) < len(tail) {
			out = append(out, s)
		}
	}
	// The sampled primary may not have been in the base list at all; keep
	// the list length at AuthorityLen by dropping the base tail's last entry.
	return out
}

// pickLeastLoaded samples d distinct slots of region r and returns the one
// with the smallest qdepth gauge (ties to the lower slot; -1 if the region
// is empty).
func (j *JSQ) pickLeastLoaded(r int) int {
	slots := j.cfg.World.RegionSlots(r)
	if len(slots) == 0 {
		return -1
	}
	d := j.cfg.D
	if d > len(slots) {
		d = len(slots)
	}
	// Partial Fisher–Yates: the first d entries become the sample.
	for i := 0; i < d; i++ {
		k := i + j.rng.Intn(len(slots)-i)
		slots[i], slots[k] = slots[k], slots[i]
	}
	best, bestQ := -1, int64(0)
	for _, s := range slots[:d] {
		q := j.cfg.Gauges.Gauge(j.cfg.Label(s) + ".qdepth").Value()
		if best < 0 || q < bestQ || (q == bestQ && s < best) {
			best, bestQ = s, q
		}
	}
	return best
}

// Rebalance implements Policy: JSQ acts only at submit time.
func (j *JSQ) Rebalance(obs.Snapshot) []Migration { return nil }
