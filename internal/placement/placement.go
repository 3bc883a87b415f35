// Package placement is the pluggable user-placement seam: every decision
// about which servers hold a user's mailbox flows through one Policy
// interface with two decision points — Place at registration/submit time and
// Rebalance on a tick.
//
// The paper balances placement once, offline (§3.1.1); this package re-homes
// that optimizer as the reference Policy and adds the online alternatives
// the load-balancing literature races against it: JSQ(d) power-of-d-choices
// submit-time server choice (Budhiraja–Friedlander) sampling d queue-depth
// gauges, and a continuous rebalancer that watches per-server ρ and emits
// bounded user migrations executed through the §3.1.4 migration machinery.
//
// Policies are transport-agnostic: servers are global integer slots (region
// r's j-th server is slot r·ServersPerRegion+j) and load observations arrive
// as internal/obs gauges named "<label>.rho" / "<label>.qdepth" /
// "<label>.placed", where label defaults to "S<slot>" — the convention both
// loadgen drivers follow.
package placement

import (
	"fmt"

	"github.com/largemail/largemail/internal/obs"
)

// World describes the deployment shape a policy places into. All counts are
// per the population/topology the driver built; slots index servers globally
// in region-major order.
type World struct {
	Regions          int
	ServersPerRegion int
	HostsPerRegion   int
	// AuthorityLen is how many servers each Place result should list.
	AuthorityLen int
}

// TotalServers returns the number of placeable server slots.
func (w World) TotalServers() int { return w.Regions * w.ServersPerRegion }

// RegionOfSlot maps a global server slot to its region index.
func (w World) RegionOfSlot(gs int) int { return gs / w.ServersPerRegion }

// RegionOfHost maps a global host index to its region index.
func (w World) RegionOfHost(gh int) int { return gh / w.HostsPerRegion }

// RegionSlots returns region r's server slots in order.
func (w World) RegionSlots(r int) []int {
	out := make([]int, w.ServersPerRegion)
	for j := range out {
		out[j] = r*w.ServersPerRegion + j
	}
	return out
}

// User identifies a placement subject at Place time. Host is the user's
// global host index, or negative when the transport has no host notion (wire
// registrations), in which case Index alone spreads the placement.
type User struct {
	Index int
	Host  int
}

// Migration directs the executing driver to move up to Count users whose
// primary server is slot From onto slot To. The policy decides flow, the
// driver picks the concrete users (it knows which are materialized, which
// carry the traffic, and which are safe to move under §3.1.4).
type Migration struct {
	From, To int
	Count    int
	// Frac is the fraction of the source's observed load the migration
	// should shed (0 = move Count users regardless). Placed-user counts are
	// a poor proxy for load under a skewed workload — a driver that knows
	// per-user traffic moves its hottest users first and stops once their
	// combined share reaches Frac, often well before Count.
	Frac float64
}

// Policy is the placement decision interface. Place is consulted when a user
// first materializes (registration/submit time) and must return the ordered
// authority list as global server slots, primary first — possibly a slice the
// policy keeps, so the caller only reads it. A base policy may name a slot
// past World.TotalServers (a server the driver wired after the world was
// drawn); the online policies leave a user with such a primary to the base. Rebalance is
// consulted once per engine tick with the current observability snapshot and
// returns the migrations to execute this tick — nil/empty when the policy is
// content (the static reference always is).
type Policy interface {
	Name() string
	Place(u User) []int
	Rebalance(snap obs.Snapshot) []Migration
}

// Config carries the knobs shared by the online policies.
type Config struct {
	World World
	Seed  int64
	// D is how many queue-depth samples JSQ(d) draws per placement
	// (default 2 — the classic power-of-two-choices).
	D int
	// Gauges is the live registry JSQ samples "<label>.qdepth" from at
	// Place time. Rebalance reads from the snapshot instead, so only JSQ
	// needs it.
	Gauges *obs.Registry
	// Label names a slot's per-server instruments (default "S<slot>").
	Label func(slot int) string
	// MaxMigrationsPerTick bounds how many users one Rebalance call may
	// move (default 32). The bound is what keeps a mis-tuned policy from
	// melting the system with migration traffic.
	MaxMigrationsPerTick int
}

const (
	// hysteresisBand is the dead zone around the regional mean ρ: only
	// servers above mean·(1+band) shed users and only servers below
	// mean·(1−band) receive them. Without the band the rebalancer thrashes
	// users back and forth across the mean.
	hysteresisBand = 0.25
	// minShedRho is the absolute ρ floor below which a server never sheds
	// users. The relative band alone misfires in a near-idle region, where a
	// single arrival puts a server "25% above" a tiny mean; a server
	// comfortably under capacity is not overloaded no matter how its
	// neighbors idle.
	minShedRho = 0.5
)

func (c Config) withDefaults() Config {
	if c.D <= 0 {
		c.D = 2
	}
	if c.Label == nil {
		c.Label = DefaultLabel
	}
	if c.MaxMigrationsPerTick <= 0 {
		c.MaxMigrationsPerTick = 32
	}
	return c
}

// DefaultLabel is the shared per-server instrument label convention.
func DefaultLabel(slot int) string { return fmt.Sprintf("S%d", slot) }

// RhoScale is the fixed-point scale of "<label>.rho" gauges: a gauge value
// of RhoScale means ρ=1.0 (gauges are int64; ρ is not).
const RhoScale = 1000

// Names of the selectable policy families, as spelled on -policy flags.
const (
	NameStatic    = "static"
	NameJSQ       = "jsq"
	NameRebalance = "rebalance"
)

// New builds the policy family name over base — the transport's static
// placement, which is what "static" (and "") names.
func New(name string, base Policy, cfg Config) Policy {
	switch name {
	case NameJSQ:
		return NewJSQ(base, cfg)
	case NameRebalance:
		return NewRebalancer(base, cfg)
	}
	return base
}

// ParseName validates a -policy flag value ("" means static).
func ParseName(s string) (string, error) {
	switch s {
	case "", NameStatic:
		return NameStatic, nil
	case NameJSQ, NameRebalance:
		return s, nil
	}
	return "", fmt.Errorf("placement: unknown policy %q (want static, jsq or rebalance)", s)
}
