package loadgen

import (
	"sort"

	"github.com/largemail/largemail/internal/obs"
	"github.com/largemail/largemail/internal/placement"
)

// placedTransport is what the placement loop asks of the driver it is
// embedded in — the two things that differ per transport, and the snapshot
// the policy reads.
type placedTransport interface {
	Snapshot() obs.Snapshot
	// deposits returns the cumulative local deposits of the server on slot,
	// whose instruments go by label; ok is false for a slot that has left
	// service.
	deposits(slot int, label string) (n int64, ok bool)
	// slow applies the congestion feedback: every message to slot's server
	// takes ticks schedule ticks longer (0 clears it).
	slow(slot int, ticks float64)
	// migrateToSlot re-homes user u from slot from onto slot to by the
	// transport's §3.1.4 handover, or refuses and leaves the user put.
	migrateToSlot(u, from, to, tick int) MigrationResult
}

// placer is the online-placement loop of a driver: the configured policy,
// who is homed where, the traffic signal migrations are ranked by, and the
// per-tick gauge refresh with its congestion feedback. SimDriver and
// LiveDriver embed one; its zero value (Config.Policy == "") is the
// historical hard-wired path, no policy object at all, and every method but
// RebalanceActive is then never called.
type placer struct {
	users  Population
	on     placedTransport
	policy placement.Policy
	gauges *obs.Registry         // what the policies observe, and the migration counters
	label  func(slot int) string // names a slot's instruments
	// serviceRate is each server's capacity in deposits per tick; > 0 closes
	// the loop (arrival-rate ρ, overloaded servers slowed), 0 publishes
	// placement-share ρ and slows nobody.
	serviceRate float64

	bySlot   []map[int]struct{} // per slot: materialized users homed there
	rehomed  map[int]int        // users moved off their base placement → tick of the move
	recv     map[int]int64      // per user: copies retrieved (the traffic signal migrations rank by)
	recvHost map[int]int64      // per host: copies retrieved by its users (locates workload skew)
	prevDep  []int64            // per slot: deposits at the last refresh
	arrEWMA  []float64          // per slot: smoothed deposit arrivals/tick
}

// start builds the policy named name over base — the transport's static
// placement — and publishes zeroed gauges so JSQ's first samples resolve.
func (p *placer) start(on placedTransport, pop Population, name string, base placement.Policy, cfg placement.Config, serviceRate float64) {
	p.on, p.users, p.gauges, p.label, p.serviceRate = on, pop, cfg.Gauges, cfg.Label, serviceRate
	switch name {
	case placement.NameJSQ:
		p.policy = placement.NewJSQ(base, cfg)
	case placement.NameRebalance:
		p.policy = placement.NewRebalancer(base, cfg)
	default:
		p.policy = base
	}
	n := cfg.World.TotalServers()
	p.bySlot = make([]map[int]struct{}, n)
	for i := range p.bySlot {
		p.bySlot[i] = make(map[int]struct{})
	}
	p.rehomed = make(map[int]int)
	p.recv = make(map[int]int64)
	p.recvHost = make(map[int]int64)
	p.prevDep = make([]int64, n)
	p.arrEWMA = make([]float64, n)
	p.refresh(1)
}

// place asks the policy where user u of global host gh goes and records the
// primary; an empty answer leaves the transport's own list in force.
func (p *placer) place(u, gh int) []int {
	slots := p.policy.Place(placement.User{Index: u, Host: gh})
	if len(slots) > 0 {
		p.bySlot[slots[0]][u] = struct{}{}
	}
	return slots
}

// noteRetrieved feeds the traffic signal: n copies reached user u.
func (p *placer) noteRetrieved(u, n int) {
	p.recv[u] += int64(n)
	p.recvHost[p.users.HostOf(u)] += int64(n)
}

// moved books a completed migration whose drain delivered drained messages.
func (p *placer) moved(u, from, to, tick, drained int) {
	delete(p.bySlot[from], u)
	p.bySlot[to][u] = struct{}{}
	p.rehomed[u] = tick
	p.gauges.Counter("migrations_total").Inc()
	p.gauges.Counter("migration_cost").Add(int64(drained))
}

// ewmaAlpha smooths per-tick deposit arrivals into the ρ estimate: high
// enough to track a flash crowd within a few ticks, low enough that one
// bursty tick does not trigger migrations on its own.
const ewmaAlpha = 0.3

// refresh publishes, ticks schedule ticks after the last call, each server's
// "<label>.rho" (utilization, RhoScale fixed-point: arrival-rate EWMA over
// serviceRate when the congestion model is on, placement share otherwise),
// "<label>.rho_peak" and "<label>.placed" (users homed there), and applies
// the congestion feedback: a server with ρ>1 gets extra per-message delay
// proportional to its overload (capped at 4 ticks), which is what makes hot
// placement decisions visibly slow and gives the online policies their signal.
func (p *placer) refresh(ticks int) {
	maxLoad := p.users.MaxLoad()
	for slot := range p.bySlot {
		label := p.label(slot)
		dep, ok := p.on.deposits(slot, label)
		if !ok {
			continue
		}
		perTick := float64(dep-p.prevDep[slot]) / float64(ticks)
		p.arrEWMA[slot] = ewmaAlpha*perTick + (1-ewmaAlpha)*p.arrEWMA[slot]
		p.prevDep[slot] = dep
		rho := float64(len(p.bySlot[slot])) / float64(maxLoad)
		if p.serviceRate > 0 {
			rho = p.arrEWMA[slot] / p.serviceRate
		}
		fixed := int64(rho * placement.RhoScale)
		p.gauges.Gauge(label + ".rho").Set(fixed)
		// Peak ρ survives the drain phase (where the EWMA decays to zero),
		// so post-run reports see how hot the run actually got.
		if peak := p.gauges.Gauge(label + ".rho_peak"); fixed > peak.Value() {
			peak.Set(fixed)
		}
		p.gauges.Gauge(label + ".placed").Set(int64(len(p.bySlot[slot])))
		if p.serviceRate > 0 {
			over := rho - 1
			if over < 0 {
				over = 0
			} else if over > 4 {
				over = 4
			}
			p.on.slow(slot, over)
		}
	}
}

// RebalanceActive implements PlacementRebalancer: only the rebalance policy
// migrates on ticks.
func (p *placer) RebalanceActive() bool {
	return p.policy != nil && p.policy.Name() == placement.NameRebalance
}

// RebalanceTick implements PlacementRebalancer: consult the policy with the
// current snapshot and execute the migrations it emits through the
// transport's §3.1.4 handover, hottest users first. Returns one result per
// user whose authority list changed or whose drain surfaced messages (the
// engine credits those to its ledger).
func (p *placer) RebalanceTick(tick int) []MigrationResult {
	var out []MigrationResult
	for _, mg := range p.policy.Rebalance(p.on.Snapshot()) {
		users, weights, total := rankByHeat(p.usersOnSlot(mg.From),
			p.recv, p.recvHost, p.users.HostOf, p.users.UsersOnHost)
		target := mg.Frac * total
		var shed float64
		moved := 0
		for i, u := range users {
			if moved >= mg.Count || (target > 0 && shed >= target) {
				break
			}
			if last, ok := p.rehomed[u]; ok && tick-last < migrationCooldown {
				continue // recently moved; let the load observation settle
			}
			res := p.on.migrateToSlot(u, mg.From, mg.To, tick)
			if res.Moved {
				moved++
				shed += weights[i]
			}
			if res.Moved || len(res.Drained) > 0 {
				out = append(out, res)
			}
		}
	}
	return out
}

// usersOnSlot returns the materialized users homed on a slot, sorted for
// deterministic migration order.
func (p *placer) usersOnSlot(slot int) []int {
	if slot < 0 || slot >= len(p.bySlot) {
		return nil
	}
	out := make([]int, 0, len(p.bySlot[slot]))
	for u := range p.bySlot[slot] {
		out = append(out, u)
	}
	sort.Ints(out)
	return out
}

// migrationCooldown is how many ticks a migrated user is pinned before the
// rebalancer may move them again. Without it a two-server region ping-pongs
// its hottest users across the mean every tick — each hop pure drain cost.
const migrationCooldown = 16

// rankByHeat orders candidate users hottest-first and returns, aligned with
// the returned order, each candidate's expected-traffic weight plus the
// total. A user's weight is their own retrieved-copy count plus their host's
// per-user share of observed host traffic: the workload's skew lives on
// hosts, so at large populations — where most individual users have not yet
// received anything and per-user counts carry no signal — a hot host's users
// are statistically hot, and moving them sheds future load in expectation.
// Ranking by personal counts alone would spend the migration budget on
// whoever happened to be polled already; ignoring personal counts would
// waste it on cold mailboxes of lukewarm hosts. Ties break by index for
// determinism.
func rankByHeat(users []int, recv, hostRecv map[int]int64,
	hostOf func(int) int, hostUsers func(int) int) ([]int, []float64, float64) {
	weight := func(u int) float64 {
		h := hostOf(u)
		w := float64(recv[u])
		if n := hostUsers(h); n > 0 {
			w += float64(hostRecv[h]) / float64(n)
		}
		return w
	}
	sort.Slice(users, func(i, j int) bool {
		wi, wj := weight(users[i]), weight(users[j])
		if wi != wj {
			return wi > wj
		}
		return users[i] < users[j]
	})
	var total float64
	weights := make([]float64, len(users))
	for i, u := range users {
		weights[i] = weight(u)
		total += weights[i]
	}
	return users, weights, total
}
