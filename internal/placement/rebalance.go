package placement

import (
	"sort"

	"github.com/largemail/largemail/internal/obs"
)

// Rebalancer is the continuous online policy: registration placement is the
// base policy's (usually the static reference), and each tick it reads the
// per-server "<label>.rho" gauges from the observability snapshot and emits
// migrations that move users off overloaded servers onto underloaded ones —
// the §3.1.4 migration machinery executes them.
//
// Three guards keep it from melting the system it is balancing:
//
//   - Hysteresis: only servers outside mean·(1±band) participate. A server
//     hovering near the mean is left alone, so the policy cannot thrash a
//     user back and forth across a noisy boundary.
//   - An absolute floor: a server below minShedRho never sheds, however far
//     above a near-idle region's mean it sits — relative bands misread noise
//     as skew when there is no traffic to balance.
//   - Budget: at most maxMigrationsPerTick users move per tick, so migration
//     traffic (drain + re-register + redirect) stays a bounded tax on the
//     delivery pipeline no matter how skewed the load gets.
type Rebalancer struct {
	base Policy
	cfg  Config
}

// NewRebalancer wraps base with per-tick ρ-driven migration.
func NewRebalancer(base Policy, cfg Config) *Rebalancer {
	return &Rebalancer{base: base, cfg: cfg.withDefaults()}
}

// Name implements Policy.
func (rb *Rebalancer) Name() string { return NameRebalance }

// Place implements Policy: registration-time placement is the base's unless
// the base's choice is a server the rebalancer is actively shedding. Rebalance
// drains an overloaded server a budgeted handful of users per tick; letting
// registrations meanwhile refill it would have the two halves of the policy
// working against each other — under a large population the stream of fresh
// users landing on a hot server outruns any migration budget. Diverting the
// registration to the region's coldest server is a migration at zero cost:
// the user has no mailbox yet, so there is nothing to drain and no copy in
// flight to chase. The shed criterion is the same one Rebalance applies
// (above the hysteresis band and the minShedRho floor), read from the live
// gauges, so a healthy region places exactly like the base policy.
func (rb *Rebalancer) Place(u User) []int {
	out := rb.base.Place(u)
	if len(out) == 0 || out[0] >= rb.cfg.World.TotalServers() || rb.cfg.Gauges == nil {
		return out
	}
	r := rb.cfg.World.RegionOfSlot(out[0])
	slots := rb.cfg.World.RegionSlots(r)
	if len(slots) < 2 {
		return out
	}
	rho := func(s int) float64 {
		return float64(rb.cfg.Gauges.Gauge(rb.cfg.Label(s)+".rho").Value()) / RhoScale
	}
	mean, cold, coldRho := 0.0, -1, 0.0
	for _, s := range slots {
		v := rho(s)
		mean += v
		if cold < 0 || v < coldRho {
			cold, coldRho = s, v
		}
	}
	mean /= float64(len(slots))
	hi := mean * (1 + hysteresisBand)
	if hi < minShedRho {
		hi = minShedRho
	}
	if rho(out[0]) <= hi || cold == out[0] {
		return out
	}
	div := make([]int, 0, len(out))
	div = append(div, cold)
	for _, s := range out {
		if s != cold && len(div) < len(out) {
			div = append(div, s)
		}
	}
	return div
}

// slotLoad is one server's observed state read from the snapshot gauges.
type slotLoad struct {
	slot   int
	rho    float64 // from "<label>.rho", RhoScale fixed-point
	placed int64   // from "<label>.placed": users whose primary this is
}

// Rebalance implements Policy. Migrations stay within a region (the paper's
// architecture never homes a user outside their region's servers); each
// overloaded server sheds its excess over the regional mean across every
// server below the band, proportional to their headroom, subject to the
// global per-tick budget.
func (rb *Rebalancer) Rebalance(snap obs.Snapshot) []Migration {
	var migs []Migration
	budget := rb.cfg.maxMigrationsPerTick
	for r := 0; r < rb.cfg.World.Regions && budget > 0; r++ {
		loads := rb.regionLoads(snap, r)
		if len(loads) < 2 {
			continue
		}
		mean := 0.0
		for _, l := range loads {
			mean += l.rho
		}
		mean /= float64(len(loads))
		if mean <= 0 {
			continue // no traffic observed yet
		}
		hi := mean * (1 + hysteresisBand)
		if hi < minShedRho {
			hi = minShedRho // a near-idle region has nothing to shed
		}
		lo := mean * (1 - hysteresisBand)
		var overs, unders []slotLoad
		for _, l := range loads {
			switch {
			case l.rho > hi:
				overs = append(overs, l)
			case l.rho < lo:
				unders = append(unders, l)
			}
		}
		sort.Slice(overs, func(i, j int) bool {
			if overs[i].rho != overs[j].rho {
				return overs[i].rho > overs[j].rho
			}
			return overs[i].slot < overs[j].slot
		})
		sort.Slice(unders, func(i, j int) bool {
			if unders[i].rho != unders[j].rho {
				return unders[i].rho < unders[j].rho
			}
			return unders[i].slot < unders[j].slot
		})
		if len(overs) == 0 || len(unders) == 0 {
			continue
		}
		// Each under-loaded server can absorb its headroom below the mean;
		// spread every over's excess across ALL of them proportionally. The
		// head-to-head alternative (hottest over → coldest under) funnels one
		// hot server's whole excess onto a single target, which merely moves
		// the hot spot around the region.
		headroom := 0.0
		for _, u := range unders {
			headroom += mean - u.rho
		}
		if headroom <= 0 {
			continue
		}
		for _, o := range overs {
			if budget <= 0 {
				break
			}
			n := moveCount(o, mean)
			frac := (o.rho - mean) / o.rho
			for _, u := range unders {
				if budget <= 0 {
					break
				}
				share := (mean - u.rho) / headroom
				cnt := int(float64(n) * share)
				if cnt < 1 {
					cnt = 1
				}
				if cnt > budget {
					cnt = budget
				}
				migs = append(migs, Migration{
					From: o.slot, To: u.slot, Count: cnt,
					Frac: frac * share,
				})
				budget -= cnt
			}
		}
	}
	return migs
}

// moveCount sizes one migration: enough users to close the server's excess
// over the regional mean, assuming traffic roughly proportional to placed
// users; at least one, at most half the server's placement (never empty a
// server in one tick — the next tick re-observes and corrects).
func moveCount(o slotLoad, mean float64) int {
	if o.placed <= 0 {
		return 1
	}
	n := int(float64(o.placed) * (o.rho - mean) / o.rho)
	if n < 1 {
		n = 1
	}
	if max := int(o.placed / 2); n > max && max >= 1 {
		n = max
	}
	return n
}

// regionLoads reads region r's per-slot gauges from the snapshot, in slot
// order (deterministic regardless of map iteration).
func (rb *Rebalancer) regionLoads(snap obs.Snapshot, r int) []slotLoad {
	slots := rb.cfg.World.RegionSlots(r)
	out := make([]slotLoad, 0, len(slots))
	for _, s := range slots {
		label := rb.cfg.Label(s)
		rho, ok := snap.Gauges[label+".rho"]
		if !ok {
			continue // server not observed (e.g. not yet ticked, or removed)
		}
		out = append(out, slotLoad{
			slot:   s,
			rho:    float64(rho) / RhoScale,
			placed: snap.Gauges[label+".placed"],
		})
	}
	return out
}
