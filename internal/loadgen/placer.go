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
	// deposits returns the cumulative local deposits of the server on slot; a
	// transport whose servers do not keep their "<label>.qdepth" themselves
	// sets it on the way. ok is false for a slot that has left service.
	deposits(slot int, qdepth *obs.Gauge) (n int64, ok bool)
	// slow applies the congestion feedback: every message to slot's server
	// takes ticks schedule ticks longer (0 clears it).
	slow(slot int, ticks float64)
	// migrateToSlot re-homes user u from slot from onto slot to by the
	// transport's §3.1.4 handover, or refuses and leaves the user put.
	migrateToSlot(u, from, to, tick int) MigrationResult
}

// placer is the placement loop of a driver — every user of SimDriver and
// LiveDriver is placed through one: the configured policy, how many users are
// homed where, and the per-tick gauge refresh with its congestion feedback.
// What only a migrating policy needs — who is homed where, and the traffic
// signal migrations are ranked by — is kept only under one, so the static
// policy costs nothing per user and four gauge writes per server per tick.
type placer struct {
	users  Population
	on     placedTransport
	policy placement.Policy
	gauges *obs.Registry // the migration counters
	// serviceRate is each server's capacity in deposits per tick; > 0 closes
	// the loop (arrival-rate ρ, overloaded servers slowed), 0 publishes
	// placement-share ρ and slows nobody.
	serviceRate float64

	slots   []slot
	rehomed map[int]int // users moved off their host's list → tick of the move

	// Under a policy that migrates on ticks only (nil otherwise):
	recv     map[int]int64 // per user: copies retrieved (the traffic signal migrations rank by)
	recvHost map[int]int64 // per host: copies retrieved by its users (locates workload skew)
}

// slot is one server of the policy world.
type slot struct {
	// "<label>.rho", ".rho_peak", ".placed", ".qdepth": what the policies
	// observe, resolved once.
	rho, peak, placed, qdepth *obs.Gauge

	users   int              // materialized users homed here
	members map[int]struct{} // who they are, under a policy that migrates on ticks (nil otherwise)
	prevDep int64            // deposits at the last refresh
	arrEWMA float64          // smoothed deposit arrivals/tick
}

// start builds the policy named name over base — the transport's static
// placement — and publishes zeroed gauges so JSQ's first samples resolve.
func (p *placer) start(on placedTransport, pop Population, name string, base placement.Policy, cfg placement.Config, serviceRate float64) {
	p.on, p.users, p.gauges, p.serviceRate = on, pop, cfg.Gauges, serviceRate
	p.policy = placement.New(name, base, cfg)
	p.rehomed = make(map[int]int)
	migrates := p.RebalanceActive()
	if migrates {
		p.recv = make(map[int]int64)
		p.recvHost = make(map[int]int64)
	}
	p.slots = make([]slot, cfg.World.TotalServers())
	for i := range p.slots {
		g := func(suffix string) *obs.Gauge { return cfg.Gauges.Gauge(cfg.Label(i) + suffix) }
		p.slots[i] = slot{rho: g(".rho"), peak: g(".rho_peak"), placed: g(".placed"), qdepth: g(".qdepth")}
		if migrates {
			p.slots[i].members = make(map[int]struct{})
		}
	}
	p.refresh(1)
}

// place asks the policy where user u of global host gh goes and books the
// primary; an empty answer leaves the transport's own list in force. The
// answer is the policy's own slice: read-only.
func (p *placer) place(u, gh int) []int {
	slots := p.policy.Place(placement.User{Index: u, Host: gh})
	if len(slots) > 0 {
		p.book(u, -1, slots[0])
	}
	return slots
}

// book moves user u in the books from slot from to slot to (-1: none). A slot
// outside the policy world (a server wired from the spare pool) keeps no books.
func (p *placer) book(u, from, to int) {
	if from >= 0 && from < len(p.slots) {
		p.slots[from].users--
		delete(p.slots[from].members, u)
	}
	if to >= 0 && to < len(p.slots) {
		p.slots[to].users++
		if p.slots[to].members != nil {
			p.slots[to].members[u] = struct{}{}
		}
	}
}

// noteRetrieved feeds the traffic signal: n copies reached user u.
func (p *placer) noteRetrieved(u, n int) {
	if p.recv == nil {
		return
	}
	p.recv[u] += int64(n)
	p.recvHost[p.users.HostOf(u)] += int64(n)
}

// moved books a completed migration whose drain delivered drained messages.
func (p *placer) moved(u, from, to, tick, drained int) {
	p.book(u, from, to)
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
	for i := range p.slots {
		s := &p.slots[i]
		dep, ok := p.on.deposits(i, s.qdepth)
		if !ok {
			continue
		}
		perTick := float64(dep-s.prevDep) / float64(ticks)
		s.arrEWMA = ewmaAlpha*perTick + (1-ewmaAlpha)*s.arrEWMA
		s.prevDep = dep
		rho := float64(s.users) / float64(maxLoad)
		if p.serviceRate > 0 {
			rho = s.arrEWMA / p.serviceRate
		}
		fixed := int64(rho * placement.RhoScale)
		s.rho.Set(fixed)
		// Peak ρ survives the drain phase (where the EWMA decays to zero),
		// so post-run reports see how hot the run actually got.
		if fixed > s.peak.Value() {
			s.peak.Set(fixed)
		}
		s.placed.Set(int64(s.users))
		if p.serviceRate > 0 {
			p.on.slow(i, min(max(rho-1, 0), 4))
		}
	}
}

// RebalanceActive implements PlacementRebalancer: only the rebalance policy
// migrates on ticks.
func (p *placer) RebalanceActive() bool { return p.policy.Name() == placement.NameRebalance }

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
	if slot < 0 || slot >= len(p.slots) {
		return nil
	}
	out := make([]int, 0, len(p.slots[slot].members))
	for u := range p.slots[slot].members {
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
