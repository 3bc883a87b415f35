package assign

import (
	"fmt"
	"math"

	"github.com/largemail/largemail/internal/graph"
)

// This file implements §3.1.3 (Reconfiguration): adding and deleting users,
// hosts, and servers "starting from a specified configuration", each
// followed by the balancing procedure so "the load ... [is] redistributed
// among the servers using the algorithm for server assignment".
//
// Reconfiguration ops mutate the dense state (append or remove a row/column
// of the comm/users matrices and the per-server slices); they are O(H·S)
// worst case, which is fine for the rare structural changes — the hot path
// is the Balance call that follows each of them.

// serverDistances runs one Dijkstra from id on the topology's frozen view
// and returns the distance to every host, in cfg.Hosts order (undirected:
// dist(server,host) == dist(host,server)). Unreachable hosts get +Inf.
func (a *Assignment) distancesFrom(id graph.NodeID) ([]float64, error) {
	f := a.cfg.Topology.Frozen()
	fi, ok := f.IndexOf(id)
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownNode, id)
	}
	dist := make([]float64, f.Len())
	prev := make([]int32, f.Len())
	f.ShortestFrom(fi, dist, prev)
	return dist, nil
}

// AddServer registers a new candidate server and rebalances. Per §3.1.3c,
// "adding a new server requires the system to be reconfigured ... the server
// assignment procedure is performed to redistribute the load so that some
// users are assigned to the new server."
func (a *Assignment) AddServer(id graph.NodeID, maxLoad int) (BalanceStats, error) {
	if _, ok := a.cfg.Topology.Node(id); !ok {
		return BalanceStats{}, fmt.Errorf("%w: server %d", ErrUnknownNode, id)
	}
	if _, dup := a.serverIdx[id]; dup {
		return BalanceStats{}, fmt.Errorf("assign: server %d already present", id)
	}
	dist, err := a.distancesFrom(id)
	if err != nil {
		return BalanceStats{}, err
	}
	f := a.cfg.Topology.Frozen()
	si := len(a.cfg.Servers)
	a.cfg.Servers = append(a.cfg.Servers, id)
	a.serverIdx[id] = si
	if a.cfg.MaxLoad == nil {
		a.cfg.MaxLoad = make(map[graph.NodeID]int)
	}
	a.cfg.MaxLoad[id] = maxLoad
	a.maxLoad = append(a.maxLoad, maxLoad)
	a.loads = append(a.loads, 0)
	a.sumNC = append(a.sumNC, 0)
	for hi, h := range a.cfg.Hosts {
		d := math.Inf(1)
		if fi, ok := f.IndexOf(h); ok {
			d = dist[fi]
		}
		a.comm[hi] = append(a.comm[hi], d)
		a.users[hi] = append(a.users[hi], 0)
	}
	return a.Balance(), nil
}

// RemoveServer deletes a server, moves its users to their nearest remaining
// server, and rebalances. Per §3.1.3c, "the server to be deleted notifies
// all other servers before it is removed. Those servers then cooperate to
// share the load of the removed server."
func (a *Assignment) RemoveServer(id graph.NodeID) (BalanceStats, error) {
	si, ok := a.serverIdx[id]
	if !ok {
		return BalanceStats{}, fmt.Errorf("assign: server %d not present", id)
	}
	if len(a.cfg.Servers) == 1 {
		return BalanceStats{}, ErrNoServers
	}
	// Capture the orphaned users before the column disappears.
	orphans := make([]int, len(a.cfg.Hosts))
	for hi := range a.cfg.Hosts {
		orphans[hi] = a.users[hi][si]
	}
	// Remove column si everywhere and reindex the servers after it.
	a.cfg.Servers = append(a.cfg.Servers[:si], a.cfg.Servers[si+1:]...)
	a.loads = append(a.loads[:si], a.loads[si+1:]...)
	a.maxLoad = append(a.maxLoad[:si], a.maxLoad[si+1:]...)
	a.sumNC = append(a.sumNC[:si], a.sumNC[si+1:]...)
	delete(a.serverIdx, id)
	for j := si; j < len(a.cfg.Servers); j++ {
		a.serverIdx[a.cfg.Servers[j]] = j
	}
	for hi := range a.cfg.Hosts {
		a.comm[hi] = append(a.comm[hi][:si], a.comm[hi][si+1:]...)
		a.users[hi] = append(a.users[hi][:si], a.users[hi][si+1:]...)
	}
	delete(a.cfg.MaxLoad, id)
	// Re-home the orphans on each host's nearest remaining server.
	for hi, n := range orphans {
		if n > 0 {
			dest := a.nearestServerIdx(hi)
			a.users[hi][dest] += n
			a.loads[dest] += n
			a.sumNC[dest] += float64(n) * a.comm[hi][dest]
		}
	}
	return a.Balance(), nil
}

// AddHost registers a host with the given user population, assigns them to
// the nearest server, and rebalances (§3.1.3b: "when a new host is added to
// the system, the new load is distributed among the servers in the region").
func (a *Assignment) AddHost(id graph.NodeID, users int) (BalanceStats, error) {
	if _, ok := a.cfg.Topology.Node(id); !ok {
		return BalanceStats{}, fmt.Errorf("%w: host %d", ErrUnknownNode, id)
	}
	if _, dup := a.hostIdx[id]; dup {
		return BalanceStats{}, fmt.Errorf("assign: host %d already present", id)
	}
	if users < 0 {
		return BalanceStats{}, fmt.Errorf("%w: %d", ErrNegativeUsers, users)
	}
	dist, err := a.distancesFrom(id)
	if err != nil {
		return BalanceStats{}, err
	}
	f := a.cfg.Topology.Frozen()
	row := make([]float64, len(a.cfg.Servers))
	reachable := false
	for j, s := range a.cfg.Servers {
		d := math.Inf(1)
		if fi, ok := f.IndexOf(s); ok {
			d = dist[fi]
		}
		row[j] = d
		if !math.IsInf(d, 1) {
			reachable = true
		}
	}
	if !reachable && users > 0 {
		return BalanceStats{}, fmt.Errorf("%w: host %d", ErrUnreachable, id)
	}
	hi := len(a.cfg.Hosts)
	a.cfg.Hosts = append(a.cfg.Hosts, id)
	a.hostIdx[id] = hi
	if a.cfg.Users == nil {
		a.cfg.Users = make(map[graph.NodeID]int)
	}
	a.cfg.Users[id] = users
	a.comm = append(a.comm, row)
	a.users = append(a.users, make([]int, len(a.cfg.Servers)))
	if users > 0 {
		dest := a.nearestServerIdx(hi)
		a.users[hi][dest] = users
		a.loads[dest] += users
		a.sumNC[dest] += float64(users) * a.comm[hi][dest]
	}
	return a.Balance(), nil
}

// RemoveHost deletes a host and its users, then rebalances (§3.1.3b: "if a
// host is removed, the load balancing state among the servers is upset and
// our load balancing algorithm should be applied").
func (a *Assignment) RemoveHost(id graph.NodeID) (BalanceStats, error) {
	hi, ok := a.hostIdx[id]
	if !ok {
		return BalanceStats{}, fmt.Errorf("assign: host %d not present", id)
	}
	for j, n := range a.users[hi] {
		if n > 0 {
			a.loads[j] -= n
			a.sumNC[j] -= float64(n) * a.comm[hi][j]
		}
	}
	a.cfg.Hosts = append(a.cfg.Hosts[:hi], a.cfg.Hosts[hi+1:]...)
	a.comm = append(a.comm[:hi], a.comm[hi+1:]...)
	a.users = append(a.users[:hi], a.users[hi+1:]...)
	delete(a.hostIdx, id)
	for i := hi; i < len(a.cfg.Hosts); i++ {
		a.hostIdx[a.cfg.Hosts[i]] = i
	}
	delete(a.cfg.Users, id)
	return a.Balance(), nil
}

// AddUsers adds n users to an existing host, placing them on the host's
// currently cheapest server, and rebalances (§3.1.3a).
func (a *Assignment) AddUsers(host graph.NodeID, n int) (BalanceStats, error) {
	hi, ok := a.hostIdx[host]
	if !ok {
		return BalanceStats{}, fmt.Errorf("assign: host %d not present", host)
	}
	if n < 0 {
		return BalanceStats{}, fmt.Errorf("%w: %d", ErrNegativeUsers, n)
	}
	a.cfg.Users[host] += n
	sMin, _, _ := a.minMaxAt(hi)
	a.users[hi][sMin] += n
	a.loads[sMin] += n
	a.sumNC[sMin] += float64(n) * a.comm[hi][sMin]
	return a.Balance(), nil
}

// RemoveUsers removes n users from a host, taking them from the host's most
// expensive servers first, and rebalances (§3.1.3a).
func (a *Assignment) RemoveUsers(host graph.NodeID, n int) (BalanceStats, error) {
	hi, ok := a.hostIdx[host]
	if !ok {
		return BalanceStats{}, fmt.Errorf("assign: host %d not present", host)
	}
	if n < 0 {
		return BalanceStats{}, fmt.Errorf("%w: %d", ErrNegativeUsers, n)
	}
	if n > a.cfg.Users[host] {
		return BalanceStats{}, fmt.Errorf("assign: host %d has only %d users, cannot remove %d",
			host, a.cfg.Users[host], n)
	}
	a.cfg.Users[host] -= n
	for n > 0 {
		_, sMax, ok := a.minMaxAt(hi)
		if !ok {
			break
		}
		take := a.users[hi][sMax]
		if take > n {
			take = n
		}
		a.users[hi][sMax] -= take
		a.loads[sMax] -= take
		a.sumNC[sMax] -= float64(take) * a.comm[hi][sMax]
		n -= take
	}
	return a.Balance(), nil
}
