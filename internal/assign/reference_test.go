package assign

import (
	"fmt"
	"math"

	"github.com/largemail/largemail/internal/graph"
	"github.com/largemail/largemail/internal/queueing"
)

// This file retains the original map-of-maps balancer as a reference
// implementation. It is the pre-optimization engine, kept verbatim in shape
// (map state, serial Dijkstra per host, O(H) serverCost rescans) so that
//
//   - the seeded equivalence property test can assert the dense engine
//     produces identical assignments, loads, and BalanceStats, and
//   - the scale benchmarks can report the speedup against the exact
//     algorithm they replaced.
//
// The only deliberate deviation: serverCost uses the same closed-form
// expression as the optimized serverCostAt (W1·ΣnC + L·W2·(Q(ρ)+z), with the
// ΣnC term recomputed by a full host rescan instead of maintained
// incrementally). The two formulations are algebraically identical; sharing
// the expression makes every accept/undo comparison bit-for-bit equal on
// exactly representable communication costs (e.g. the integer edge weights
// graph.RandomConnected generates).

// referenceBalance is the old engine: it validates cfg, computes the
// zero-load costs serially, and returns the map-based assignment ready for
// run().
func referenceBalance(cfg Config) (*referenceAssignment, error) {
	cfg, err := normalizeConfig(cfg)
	if err != nil {
		return nil, err
	}
	r := &referenceAssignment{
		cfg:   cfg,
		comm:  make(map[graph.NodeID]map[graph.NodeID]float64, len(cfg.Hosts)),
		users: make(map[graph.NodeID]map[graph.NodeID]int, len(cfg.Hosts)),
		loads: make(map[graph.NodeID]int, len(cfg.Servers)),
	}
	for _, s := range cfg.Servers {
		r.loads[s] = 0
	}
	topo := cfg.Topology
	if cfg.ChannelUtil != nil {
		weighted, err := utilizationWeighted(cfg.Topology, cfg.ChannelUtil)
		if err != nil {
			return nil, err
		}
		topo = weighted
	}
	for _, h := range cfg.Hosts {
		paths, err := topo.ShortestPaths(h)
		if err != nil {
			return nil, err
		}
		row := make(map[graph.NodeID]float64, len(cfg.Servers))
		reachable := false
		for _, s := range cfg.Servers {
			if d, ok := paths.Dist[s]; ok {
				row[s] = d
				reachable = true
			} else {
				row[s] = math.Inf(1)
			}
		}
		if !reachable && cfg.Users[h] > 0 {
			return nil, fmt.Errorf("%w: host %d", ErrUnreachable, h)
		}
		r.comm[h] = row
		r.users[h] = make(map[graph.NodeID]int, len(cfg.Servers))
	}
	return r, nil
}

// referenceAssignment is the old map-based assignment state.
type referenceAssignment struct {
	cfg   Config
	comm  map[graph.NodeID]map[graph.NodeID]float64 // C(i,j), one-way shortest path
	users map[graph.NodeID]map[graph.NodeID]int     // A[host][server]
	loads map[graph.NodeID]int                      // L[server]
}

func (r *referenceAssignment) initialize() {
	for _, s := range r.cfg.Servers {
		r.loads[s] = 0
	}
	for _, h := range r.cfg.Hosts {
		r.users[h] = make(map[graph.NodeID]int, len(r.cfg.Servers))
		n := r.cfg.Users[h]
		if n == 0 {
			continue
		}
		best := r.nearestServer(h)
		r.users[h][best] = n
		r.loads[best] += n
	}
}

func (r *referenceAssignment) nearestServer(h graph.NodeID) graph.NodeID {
	best := r.cfg.Servers[0]
	bestC := r.comm[h][best]
	for _, s := range r.cfg.Servers[1:] {
		if c := r.comm[h][s]; c < bestC {
			best, bestC = s, c
		}
	}
	return best
}

func (r *referenceAssignment) connectionCost(host, server graph.NodeID) float64 {
	c := r.comm[host][server]
	if math.IsInf(c, 1) {
		return math.Inf(1)
	}
	wait := queueing.Wait(queueing.Utilization(r.loads[server], r.cfg.MaxLoad[server]))
	return c*r.cfg.CommW + (wait+r.cfg.ProcTime)*r.cfg.ProcW
}

func (r *referenceAssignment) balance() BalanceStats {
	var stats BalanceStats
	const eps = 1e-9
	for limit := maxSweeps(r.cfg); stats.Sweeps < limit; {
		stats.Sweeps++
		changed := false
		for _, h := range r.cfg.Hosts {
			for { // keep improving this host while moves help
				sMin, sMax, ok := r.minMaxServers(h)
				if !ok || sMin == sMax {
					break
				}
				if !(r.connectionCost(h, sMin) < r.connectionCost(h, sMax)-eps) {
					break
				}
				batch := r.cfg.MoveBatch
				if avail := r.users[h][sMax]; batch > avail {
					batch = avail
				}
				before := r.serverCost(sMin) + r.serverCost(sMax)
				r.move(h, sMax, sMin, batch)
				after := r.serverCost(sMin) + r.serverCost(sMax)
				if after < before-eps {
					changed = true
					stats.Moves++
					stats.UsersMoved += batch
				} else {
					r.move(h, sMin, sMax, batch) // undo
					stats.Undone++
					break
				}
			}
		}
		if !changed {
			break
		}
	}
	for _, s := range r.cfg.Servers {
		if r.loads[s] > r.cfg.MaxLoad[s] {
			stats.Overloaded = append(stats.Overloaded, s)
		}
	}
	return stats
}

func (r *referenceAssignment) minMaxServers(h graph.NodeID) (sMin, sMax graph.NodeID, ok bool) {
	minCost := math.Inf(1)
	maxCost := math.Inf(-1)
	for _, s := range r.cfg.Servers {
		c := r.connectionCost(h, s)
		if c < minCost {
			minCost, sMin = c, s
		}
		if r.users[h][s] > 0 && c > maxCost {
			maxCost, sMax = c, s
			ok = true
		}
	}
	return sMin, sMax, ok
}

// serverCost is the O(H) rescan the optimized engine replaced: the ΣnC term
// is recomputed from scratch on every call. The final expression mirrors
// serverCostAt exactly (see the file comment).
func (r *referenceAssignment) serverCost(s graph.NodeID) float64 {
	var sumNC float64
	for _, h := range r.cfg.Hosts {
		if n := r.users[h][s]; n > 0 {
			sumNC += float64(n) * r.comm[h][s]
		}
	}
	wait := queueing.Wait(queueing.Utilization(r.loads[s], r.cfg.MaxLoad[s]))
	return r.cfg.CommW*sumNC + float64(r.loads[s])*r.cfg.ProcW*(wait+r.cfg.ProcTime)
}

func (r *referenceAssignment) move(h, from, to graph.NodeID, n int) {
	if n <= 0 {
		return
	}
	r.users[h][from] -= n
	if r.users[h][from] == 0 {
		delete(r.users[h], from)
	}
	r.users[h][to] += n
	r.loads[from] -= n
	r.loads[to] += n
}

func (r *referenceAssignment) run() BalanceStats {
	r.initialize()
	return r.balance()
}

func (r *referenceAssignment) totalCost() float64 {
	var total float64
	for _, s := range r.cfg.Servers {
		total += r.serverCost(s)
	}
	return total
}
