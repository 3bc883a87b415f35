// Package assign implements the paper's server-assignment and load-balancing
// algorithm (§3.1.1).
//
// Users on hosts are assigned to mail (authority) servers so that two
// objectives are satisfied: "to minimize the user connection cost which is a
// function of communication time, processing time, and queuing time" and "to
// balance the expected load level among servers". The connection cost from
// host i to server j is
//
//	TC(i,j) = C(i,j)·W1 + (Q(ρ_j) + z)·W2
//
// where C(i,j) is the zero-load shortest-path communication time, ρ_j =
// L_j/M_j the server's utilisation, Q the M/M/1 waiting estimate
// (internal/queueing), z the mean per-request processing time, and W1/W2 the
// communication/processing weights.
//
// The algorithm has two procedures. Initialization assigns all users on a
// host to the nearest server by communication time alone. Balancing then
// repeatedly moves users one (or, with MoveBatch > 1, several — the paper's
// "much faster" variant) at a time from the assigned server with the highest
// connection cost to the server with the lowest, undoing any move that does
// not lower the combined cost of the two servers involved, until no host can
// improve.
//
// # Scaling
//
// The engine stores the assignment state densely: hosts and servers get
// contiguous indices, C(i,j) and A[i][j] live in [host][server] slices, and
// each server carries two running sums — its load L_s and Σ_i A[i][s]·C(i,s).
// A server's total cost is then the closed form
//
//	cost(s) = W1·ΣnC(s) + L_s·W2·(Q(ρ_s) + z)
//
// evaluated in O(1), so every tentative move/undo in Balance costs O(S) per
// host (the min/max scan) instead of O(H+S). The zero-load communication
// costs are computed by per-host Dijkstra runs fanned out across GOMAXPROCS
// workers on the topology's frozen view (graph.Frozen). The retained
// map-based implementation (reference_test.go) pins down exact equivalence.
package assign

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/largemail/largemail/internal/graph"
	"github.com/largemail/largemail/internal/obs"
	"github.com/largemail/largemail/internal/queueing"
)

// Config describes an assignment problem instance.
type Config struct {
	Topology *graph.Graph
	Hosts    []graph.NodeID       // hosts carrying users, in presentation order
	Servers  []graph.NodeID       // candidate servers, in presentation order
	Users    map[graph.NodeID]int // N_i: users homed on each host
	MaxLoad  map[graph.NodeID]int // M_j: maximum users per server
	ProcTime float64              // z: average processing time per request (time units)
	CommW    float64              // W1: weight of communication time
	ProcW    float64              // W2: weight of processing + queueing time
	// MoveBatch is how many users each balancing step moves at once. Zero
	// or one gives the paper's base algorithm; larger values give the
	// paper's accelerated variant.
	MoveBatch int
	// ChannelUtil optionally reports the utilisation ρ of the channel
	// between two adjacent nodes, enabling the paper's final modification:
	// "include variable communication delays by having approximate queuing
	// delays that is a function of the channel utilization" (§3.1.1). Each
	// link's communication time is scaled by (1 + ρ/(1-ρ)). Nil keeps the
	// paper's base assumption of constant delays ("valid in the case of
	// light loads on the channel").
	ChannelUtil func(a, b graph.NodeID) float64
}

// PaperWeights returns the weight settings of the worked example in §3.1.1:
// W1 = 4 ("to force the algorithm to select the closest servers ... [taking]
// into consideration the round-trip communication delay"), W2 = 1, and a
// message processing time of 0.5 time units.
func PaperWeights() (commW, procW, procTime float64) { return 4, 1, 0.5 }

// Configuration errors.
var (
	ErrNoServers     = errors.New("assign: no servers")
	ErrNoHosts       = errors.New("assign: no hosts")
	ErrUnreachable   = errors.New("assign: host cannot reach any server")
	ErrUnknownNode   = errors.New("assign: node not in topology")
	ErrNegativeUsers = errors.New("assign: negative user count")
)

// normalizeConfig validates the parts of cfg that don't require path
// computation and returns a defensive copy (shared by the optimized engine
// and the reference implementation).
func normalizeConfig(cfg Config) (Config, error) {
	if len(cfg.Servers) == 0 {
		return Config{}, ErrNoServers
	}
	if len(cfg.Hosts) == 0 {
		return Config{}, ErrNoHosts
	}
	if cfg.Topology == nil {
		return Config{}, errors.New("assign: nil topology")
	}
	if cfg.MoveBatch < 1 {
		cfg.MoveBatch = 1
	}
	// Copy caller-owned slices and maps: reconfiguration mutates them.
	cfg.Hosts = append([]graph.NodeID(nil), cfg.Hosts...)
	cfg.Servers = append([]graph.NodeID(nil), cfg.Servers...)
	users := make(map[graph.NodeID]int, len(cfg.Users))
	for k, v := range cfg.Users {
		users[k] = v
	}
	cfg.Users = users
	maxLoad := make(map[graph.NodeID]int, len(cfg.MaxLoad))
	for k, v := range cfg.MaxLoad {
		maxLoad[k] = v
	}
	cfg.MaxLoad = maxLoad
	for _, h := range cfg.Hosts {
		if n := cfg.Users[h]; n < 0 {
			return Config{}, fmt.Errorf("%w: host %d has %d", ErrNegativeUsers, h, n)
		}
	}
	for _, s := range cfg.Servers {
		if _, ok := cfg.Topology.Node(s); !ok {
			return Config{}, fmt.Errorf("%w: server %d", ErrUnknownNode, s)
		}
	}
	for _, h := range cfg.Hosts {
		if _, ok := cfg.Topology.Node(h); !ok {
			return Config{}, fmt.Errorf("%w: host %d", ErrUnknownNode, h)
		}
	}
	return cfg, nil
}

// Assignment is a mutable user-to-server assignment (the A_ij matrix of
// §3.1.1). State is dense: comm and users are [hostIdx][serverIdx] slices,
// loads/maxLoad/sumNC are per-server slices, and hostIdx/serverIdx map node
// IDs to their positions in cfg.Hosts/cfg.Servers.
type Assignment struct {
	cfg Config

	hostIdx   map[graph.NodeID]int
	serverIdx map[graph.NodeID]int
	comm      [][]float64 // C(i,j), one-way shortest path
	users     [][]int     // A[host][server]
	loads     []int       // L[server]
	maxLoad   []int       // M[server], mirrors cfg.MaxLoad
	sumNC     []float64   // Σ_i A[i][s]·C(i,s), maintained incrementally
}

// New validates cfg, computes the zero-load communication costs (per-host
// Dijkstra fan-out across GOMAXPROCS workers), and returns an empty
// assignment (call Initialize next, or Run for the full pipeline).
func New(cfg Config) (*Assignment, error) {
	cfg, err := normalizeConfig(cfg)
	if err != nil {
		return nil, err
	}
	a := &Assignment{
		cfg:       cfg,
		hostIdx:   make(map[graph.NodeID]int, len(cfg.Hosts)),
		serverIdx: make(map[graph.NodeID]int, len(cfg.Servers)),
		comm:      make([][]float64, len(cfg.Hosts)),
		users:     make([][]int, len(cfg.Hosts)),
		loads:     make([]int, len(cfg.Servers)),
		maxLoad:   make([]int, len(cfg.Servers)),
		sumNC:     make([]float64, len(cfg.Servers)),
	}
	for i, h := range cfg.Hosts {
		a.hostIdx[h] = i
		a.users[i] = make([]int, len(cfg.Servers))
	}
	for j, s := range cfg.Servers {
		a.serverIdx[s] = j
		a.maxLoad[j] = cfg.MaxLoad[s]
	}
	topo := cfg.Topology
	if cfg.ChannelUtil != nil {
		weighted, err := utilizationWeighted(cfg.Topology, cfg.ChannelUtil)
		if err != nil {
			return nil, err
		}
		topo = weighted
	}
	if err := a.fillComm(topo); err != nil {
		return nil, err
	}
	return a, nil
}

// fillComm computes every host's zero-load communication cost row on topo's
// frozen view, one Dijkstra per host, fanned out across GOMAXPROCS workers.
func (a *Assignment) fillComm(topo *graph.Graph) error {
	f := topo.Frozen()
	srvFz := make([]int, len(a.cfg.Servers))
	for j, s := range a.cfg.Servers {
		fi, ok := f.IndexOf(s)
		if !ok {
			return fmt.Errorf("%w: server %d", ErrUnknownNode, s)
		}
		srvFz[j] = fi
	}
	hostFz := make([]int, len(a.cfg.Hosts))
	for i, h := range a.cfg.Hosts {
		fi, ok := f.IndexOf(h)
		if !ok {
			return fmt.Errorf("%w: host %d", ErrUnknownNode, h)
		}
		hostFz[i] = fi
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(a.cfg.Hosts) {
		workers = len(a.cfg.Hosts)
	}
	if workers < 1 {
		workers = 1
	}
	var next int32 = -1
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			dist := make([]float64, f.Len())
			prev := make([]int32, f.Len())
			for {
				i := int(atomic.AddInt32(&next, 1))
				if i >= len(a.cfg.Hosts) {
					return
				}
				f.ShortestFrom(hostFz[i], dist, prev)
				row := make([]float64, len(srvFz))
				for j, fz := range srvFz {
					row[j] = dist[fz] // +Inf when unreachable
				}
				a.comm[i] = row
			}
		}()
	}
	wg.Wait()
	for i, h := range a.cfg.Hosts {
		if a.cfg.Users[h] == 0 {
			continue
		}
		reachable := false
		for _, c := range a.comm[i] {
			if !math.IsInf(c, 1) {
				reachable = true
				break
			}
		}
		if !reachable {
			return fmt.Errorf("%w: host %d", ErrUnreachable, h)
		}
	}
	return nil
}

// utilizationWeighted returns a copy of g whose edge weights are scaled by
// the M/M/1 queueing factor (1 + ρ/(1-ρ)) of each channel's utilisation.
func utilizationWeighted(g *graph.Graph, util func(a, b graph.NodeID) float64) (*graph.Graph, error) {
	out := graph.New()
	for _, n := range g.Nodes() {
		out.MustAddNode(n)
	}
	for _, e := range g.Edges() {
		rho := util(e.A, e.B)
		factor := 1 + queueing.Wait(rho)
		if err := out.AddEdge(e.A, e.B, e.Weight*factor); err != nil {
			return nil, fmt.Errorf("assign: channel-weighted edge %d-%d: %w", e.A, e.B, err)
		}
	}
	return out, nil
}

// Comm returns the cached zero-load communication cost C(i,j).
func (a *Assignment) Comm(host, server graph.NodeID) float64 {
	hi, ok1 := a.hostIdx[host]
	si, ok2 := a.serverIdx[server]
	if !ok1 || !ok2 {
		return 0
	}
	return a.comm[hi][si]
}

// Load returns the current load L_j of a server.
func (a *Assignment) Load(server graph.NodeID) int {
	if si, ok := a.serverIdx[server]; ok {
		return a.loads[si]
	}
	return 0
}

// Utilization returns ρ_j = L_j/M_j for a server.
func (a *Assignment) Utilization(server graph.NodeID) float64 {
	if si, ok := a.serverIdx[server]; ok {
		return queueing.Utilization(a.loads[si], a.maxLoad[si])
	}
	return queueing.Utilization(0, a.cfg.MaxLoad[server])
}

// ConnectionCost returns TC(i,j) under the current loads.
func (a *Assignment) ConnectionCost(host, server graph.NodeID) float64 {
	c := a.Comm(host, server)
	if math.IsInf(c, 1) {
		return math.Inf(1)
	}
	wait := queueing.Wait(a.Utilization(server))
	return c*a.cfg.CommW + (wait+a.cfg.ProcTime)*a.cfg.ProcW
}

// connCostAt is ConnectionCost on dense indices — the Balance hot path.
func (a *Assignment) connCostAt(hi, si int) float64 {
	c := a.comm[hi][si]
	if math.IsInf(c, 1) {
		return math.Inf(1)
	}
	wait := queueing.Wait(queueing.Utilization(a.loads[si], a.maxLoad[si]))
	return c*a.cfg.CommW + (wait+a.cfg.ProcTime)*a.cfg.ProcW
}

// Initialize runs the paper's initialization procedure: "all users on a host
// are assigned to the nearest server", nearest by communication time alone.
// Ties break toward the earlier server in cfg.Servers. Any previous
// assignment is discarded.
func (a *Assignment) Initialize() {
	for j := range a.loads {
		a.loads[j] = 0
		a.sumNC[j] = 0
	}
	for hi := range a.users {
		row := a.users[hi]
		for j := range row {
			row[j] = 0
		}
		n := a.cfg.Users[a.cfg.Hosts[hi]]
		if n == 0 {
			continue
		}
		best := a.nearestServerIdx(hi)
		row[best] = n
		a.loads[best] += n
		a.sumNC[best] += float64(n) * a.comm[hi][best]
	}
}

// nearestServerIdx returns the dense index of the server with the cheapest
// zero-load communication cost from host hi; ties break toward the earlier
// server in cfg.Servers.
func (a *Assignment) nearestServerIdx(hi int) int {
	row := a.comm[hi]
	best := 0
	bestC := row[0]
	for j := 1; j < len(row); j++ {
		if row[j] < bestC {
			best, bestC = j, row[j]
		}
	}
	return best
}

// BalanceStats reports what a Balance run did.
type BalanceStats struct {
	Sweeps     int            // full passes over the host list
	Moves      int            // accepted user moves (batches count once)
	UsersMoved int            // individual users moved
	Undone     int            // tentative moves that were undone
	Overloaded []graph.NodeID // servers still above MaxLoad afterwards
}

// maxSweeps bounds the balancing sweeps as a safety net: generous, and
// proportional to the problem's population and size.
func maxSweeps(cfg Config) int {
	total := 0
	for _, h := range cfg.Hosts {
		total += cfg.Users[h]
	}
	return 10 * (total + len(cfg.Hosts)*len(cfg.Servers) + 100)
}

// Balance runs the paper's balancing procedure until no host can lower its
// cost by moving users, then reports whether any servers remain overloaded
// (the procedure's final "check if some of the servers are still
// overloaded"). Each accept/undo decision evaluates the two affected
// servers' closed-form costs in O(1).
func (a *Assignment) Balance() BalanceStats {
	var stats BalanceStats
	const eps = 1e-9
	for limit := maxSweeps(a.cfg); stats.Sweeps < limit; {
		stats.Sweeps++
		changed := false
		for hi := range a.cfg.Hosts {
			for { // keep improving this host while moves help
				sMin, sMax, ok := a.minMaxAt(hi)
				if !ok || sMin == sMax {
					break
				}
				if !(a.connCostAt(hi, sMin) < a.connCostAt(hi, sMax)-eps) {
					break
				}
				batch := a.cfg.MoveBatch
				if avail := a.users[hi][sMax]; batch > avail {
					batch = avail
				}
				before := a.serverCostAt(sMin) + a.serverCostAt(sMax)
				a.moveAt(hi, sMax, sMin, batch)
				after := a.serverCostAt(sMin) + a.serverCostAt(sMax)
				if after < before-eps {
					changed = true
					stats.Moves++
					stats.UsersMoved += batch
				} else {
					a.moveAt(hi, sMin, sMax, batch) // undo
					stats.Undone++
					break
				}
			}
		}
		if !changed {
			break
		}
	}
	for j, s := range a.cfg.Servers {
		if a.loads[j] > a.maxLoad[j] {
			stats.Overloaded = append(stats.Overloaded, s)
		}
	}
	return stats
}

// minMaxAt finds S_min (cheapest server for host hi) and S_max (the
// costliest server hi currently has users on). ok is false when the host
// has no users assigned anywhere.
func (a *Assignment) minMaxAt(hi int) (sMin, sMax int, ok bool) {
	minCost := math.Inf(1)
	maxCost := math.Inf(-1)
	row := a.users[hi]
	for j := range a.cfg.Servers {
		c := a.connCostAt(hi, j)
		if c < minCost {
			minCost, sMin = c, j
		}
		if row[j] > 0 && c > maxCost {
			maxCost, sMax = c, j
			ok = true
		}
	}
	return sMin, sMax, ok
}

// serverCostAt is the total connection cost charged to a server under the
// current loads, Σ_i A[i][s]·TC(i,s), evaluated in O(1) from the running
// sums: W1·ΣnC(s) + L_s·W2·(Q(ρ_s)+z). The reference implementation must
// use this exact expression so accept/undo decisions agree bit-for-bit.
func (a *Assignment) serverCostAt(si int) float64 {
	wait := queueing.Wait(queueing.Utilization(a.loads[si], a.maxLoad[si]))
	return a.cfg.CommW*a.sumNC[si] + float64(a.loads[si])*a.cfg.ProcW*(wait+a.cfg.ProcTime)
}

// moveAt moves n users of host hi between servers, maintaining the running
// sums in O(1).
func (a *Assignment) moveAt(hi, from, to, n int) {
	if n <= 0 {
		return
	}
	a.users[hi][from] -= n
	a.users[hi][to] += n
	a.loads[from] -= n
	a.loads[to] += n
	a.sumNC[from] -= float64(n) * a.comm[hi][from]
	a.sumNC[to] += float64(n) * a.comm[hi][to]
}

// Run executes the full pipeline: Initialize then Balance.
func (a *Assignment) Run() BalanceStats {
	a.Initialize()
	return a.Balance()
}

// TotalCost is the system-wide connection cost Σ_i Σ_j A[i][j]·TC(i,j)
// under the current loads.
func (a *Assignment) TotalCost() float64 {
	var total float64
	for j := range a.cfg.Servers {
		total += a.serverCostAt(j)
	}
	return total
}

// MaxUtilization returns the highest server utilisation.
func (a *Assignment) MaxUtilization() float64 {
	max := 0.0
	for j := range a.cfg.Servers {
		if u := queueing.Utilization(a.loads[j], a.maxLoad[j]); u > max {
			max = u
		}
	}
	return max
}

// Row is one line of the paper's assignment tables: users of a host assigned
// to a server.
type Row struct {
	Host   graph.NodeID
	Server graph.NodeID
	Users  int
}

// Rows returns the assignment in the paper's table layout, ordered by host
// (cfg order) then server (cfg order), omitting zero entries.
func (a *Assignment) Rows() []Row {
	var rows []Row
	for hi, h := range a.cfg.Hosts {
		for si, s := range a.cfg.Servers {
			if n := a.users[hi][si]; n > 0 {
				rows = append(rows, Row{Host: h, Server: s, Users: n})
			}
		}
	}
	return rows
}

// Table renders the current assignment in the layout of the paper's Tables
// 1–3 (host, server, users) followed by per-server load totals.
func (a *Assignment) Table(title string) *obs.Table {
	t := obs.NewTable(title, "Host", "Server", "Users")
	label := func(id graph.NodeID) string {
		if n, ok := a.cfg.Topology.Node(id); ok && n.Label != "" {
			return n.Label
		}
		return fmt.Sprintf("%d", id)
	}
	for _, r := range a.Rows() {
		t.AddRow(label(r.Host), label(r.Server), r.Users)
	}
	for j, s := range a.cfg.Servers {
		t.AddRow("total", label(s), a.loads[j])
	}
	return t
}

// Loads returns a copy of the per-server load map.
func (a *Assignment) Loads() map[graph.NodeID]int {
	out := make(map[graph.NodeID]int, len(a.cfg.Servers))
	for j, s := range a.cfg.Servers {
		out[s] = a.loads[j]
	}
	return out
}

// AuthorityLists ranks, for each host, the servers by current connection
// cost and returns the first listLen of them. This realizes the paper's
// extension — "the algorithm can be extended to assign the [secondary]
// server instead of only the primary server" — and §3.1.1's requirement that
// "each user is assigned several authority servers, which are ordered in a
// list such that the first server in the list is the primary server".
func (a *Assignment) AuthorityLists(listLen int) map[graph.NodeID][]graph.NodeID {
	if listLen <= 0 || listLen > len(a.cfg.Servers) {
		listLen = len(a.cfg.Servers)
	}
	out := make(map[graph.NodeID][]graph.NodeID, len(a.cfg.Hosts))
	for _, h := range a.cfg.Hosts {
		ranked := append([]graph.NodeID(nil), a.cfg.Servers...)
		h := h
		sort.SliceStable(ranked, func(x, y int) bool {
			cx, cy := a.ConnectionCost(h, ranked[x]), a.ConnectionCost(h, ranked[y])
			if cx != cy {
				return cx < cy
			}
			return ranked[x] < ranked[y]
		})
		// Primary server preference: if the host has users assigned, put
		// the server holding most of them first among equal-cost choices.
		out[h] = ranked[:listLen]
	}
	return out
}
