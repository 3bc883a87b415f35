package placement

import (
	"fmt"
	"slices"

	"github.com/largemail/largemail/internal/names"
	"github.com/largemail/largemail/internal/obs"
)

// StaticConfig wires the §3.1.1 optimizer into the Policy interface. The
// driver keeps running the per-region assign.Assignment engines (they need the
// real topology) and keeps each host's authority list current; Static turns
// those lists into slot-space Place answers.
type StaticConfig struct {
	World World
	// Lists returns a global host's current authority list as topology nodes:
	// the driver's own slice, replaced (never edited) when a reconfiguration
	// re-runs the assignment.
	Lists func(gh int) []names.NodeID
	// SlotOf maps a topology server node to its global slot (ok=false for
	// nodes that are not placeable servers).
	SlotOf func(id names.NodeID) (int, bool)
}

// Static is the reference policy: the §3.1.1 static optimum, re-homed. It
// never rebalances — that is the point being raced against.
type Static struct {
	cfg   StaticConfig
	hosts []hostList // per global host
}

// hostList is a host's authority list as last seen and its translation.
type hostList struct {
	nodes []names.NodeID
	slots []int
}

// NewStatic wraps the driver's per-host §3.1.1 lists as a Policy.
func NewStatic(cfg StaticConfig) (*Static, error) {
	if cfg.Lists == nil || cfg.SlotOf == nil {
		return nil, fmt.Errorf("placement: static policy needs Lists and SlotOf")
	}
	return &Static{cfg: cfg, hosts: make([]hostList, cfg.World.Regions*cfg.World.HostsPerRegion)}, nil
}

// Name implements Policy.
func (s *Static) Name() string { return NameStatic }

// Place implements Policy: the host's authority list, translated to slots.
// Every user of a host gets the same cached slice — the reference policy
// costs nothing per user — so callers must not write to it (no policy
// wrapping this one does). The translation is redone when the host's list is
// no longer the one it was made from.
func (s *Static) Place(u User) []int {
	if u.Host < 0 || u.Host >= len(s.hosts) {
		return nil
	}
	h := &s.hosts[u.Host]
	if nodes := s.cfg.Lists(u.Host); !slices.Equal(nodes, h.nodes) {
		h.nodes, h.slots = nodes, make([]int, 0, len(nodes))
		for _, sv := range nodes {
			if slot, ok := s.cfg.SlotOf(sv); ok {
				h.slots = append(h.slots, slot)
			}
		}
	}
	return h.slots
}

// Rebalance implements Policy: the static optimum never moves anyone.
func (s *Static) Rebalance(obs.Snapshot) []Migration { return nil }

// RoundRobin is the live transport's historical static placement: region r's
// slots assigned round-robin from the user's host offset. It exists so the
// online policies compose over the same base on transports that run no
// §3.1.1 assignment.
type RoundRobin struct {
	w World
}

// NewRoundRobin returns the round-robin reference policy.
func NewRoundRobin(w World) *RoundRobin { return &RoundRobin{w: w} }

// Name implements Policy.
func (p *RoundRobin) Name() string { return NameStatic }

// Place implements Policy.
func (p *RoundRobin) Place(u User) []int {
	w := p.w
	gh := u.Host
	if gh < 0 {
		gh = u.Index
	}
	gh %= w.Regions * w.HostsPerRegion
	if gh < 0 {
		gh += w.Regions * w.HostsPerRegion
	}
	r := w.RegionOfHost(gh)
	n := w.AuthorityLen
	if n > w.ServersPerRegion {
		n = w.ServersPerRegion
	}
	out := make([]int, 0, n)
	start := gh % w.ServersPerRegion
	for i := 0; i < n; i++ {
		out = append(out, r*w.ServersPerRegion+(start+i)%w.ServersPerRegion)
	}
	return out
}

// Rebalance implements Policy.
func (p *RoundRobin) Rebalance(obs.Snapshot) []Migration { return nil }
