package loadgen

import (
	"math/rand"
	"strings"

	"github.com/largemail/largemail/internal/faults"
	"github.com/largemail/largemail/internal/mail"
	"github.com/largemail/largemail/internal/obs"
)

// Config parameterizes one closed-loop run.
type Config struct {
	Seed int64
	// Messages is the total message budget across all sessions (default
	// 200). The run keeps ticking past Ticks until the budget is spent.
	Messages int
	// Sessions is how many concurrent user sessions drive traffic (default
	// min(32, population size)). Session k is user k·stride, spreading the
	// senders evenly across hosts and regions.
	Sessions int
	// Ticks is the minimum horizon in schedule ticks; raised to the fault
	// schedule's horizon so every injected window closes inside the run
	// (default 50).
	Ticks int
	// RetrieveEvery is the sweep period: every touched user runs GetMail
	// once per this many ticks (default 4).
	RetrieveEvery int
	// Workload sets the per-message distributions.
	Workload Workload
	// Profile shapes the recipient draw over time (hot-spot, diurnal wave,
	// flash crowd). The zero value keeps the historical uniform draw.
	Profile Profile
	// Schedule, when non-nil, is a compiled fault schedule injected as its
	// ticks come due. Its presence disables the strict §3.1.2c poll audit —
	// extra polls during failures are the algorithm working as designed.
	Schedule *faults.Schedule
}

// settleRounds consecutive empty retrieval sweeps end the drain phase;
// maxSettle caps the sweeps.
const (
	settleRounds = 3
	maxSettle    = 200
)

func (c Config) withDefaults(pop Population) Config {
	if c.Messages <= 0 {
		c.Messages = 200
	}
	if c.Sessions <= 0 {
		c.Sessions = 32
	}
	if c.Sessions > pop.Users {
		c.Sessions = pop.Users
	}
	if c.Ticks <= 0 {
		c.Ticks = 50
	}
	if c.Schedule != nil && c.Schedule.Horizon() > c.Ticks {
		c.Ticks = c.Schedule.Horizon()
	}
	if c.RetrieveEvery <= 0 {
		c.RetrieveEvery = 4
	}
	c.Workload = c.Workload.withDefaults()
	if c.Profile.Kind != "" {
		c.Profile = c.Profile.withDefaults()
	}
	return c
}

// Report is what one engine run produced and proved.
type Report struct {
	Submitted  int  // messages committed
	Copies     int  // recipient copies committed (≥ Submitted)
	Retrievals int  // GetMail invocations
	Polls      int  // CheckMail calls across all retrievals
	Duplicates int  // agent-side dedup suppressions
	Ticks      int  // main-loop ticks actually run
	Migrations int  // placement migrations executed by the rebalance policy
	Ok         bool // zero auditor violations

	Violations map[string]int // violation totals by kind
	Examples   []string       // up to maxViolationDetail example violations
	Loads      []ServerLoad   // predicted vs observed per-server load
}

// az is what message bodies are made of.
const az = "abcdefghijklmnopqrstuvwxyz"

// session is one closed-loop user: send, think, send again.
type session struct {
	user int
	next int // tick of the next send
}

// Engine drives a Driver with a seeded closed-loop workload while the
// Auditors check the paper's invariants online. One engine, two transports:
// everything here is transport-agnostic.
type Engine struct {
	drv Driver
	cfg Config
	rng *rand.Rand
	aud *Auditors

	// OnTick, when set before Run, fires after each main-loop tick — the
	// hook reconfiguration tests use to add/remove servers or migrate users
	// mid-run. Setting it disables the strict poll audit (reconfiguration
	// legitimately forces extra polls).
	OnTick func(tick int)

	// alphabet is az repeated past maxBody: the body of a message fired at
	// tick t is the n bytes from offset t%len(az), a slice of this one string.
	alphabet string

	sessions  []*session
	touched   map[int]bool
	sweepList []int     // touched users, in first-touch order
	committed []obs.Key // messages owed complete traces
	submitted int
	rcpts     []int // fire's recipients; Driver.Submit keeps none of them
}

// New builds an engine over drv. Run may be called once.
func New(drv Driver, cfg Config) *Engine {
	pop := drv.Population()
	cfg = cfg.withDefaults(pop)
	e := &Engine{
		drv:     drv,
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		touched: make(map[int]bool),
	}
	e.alphabet = strings.Repeat(az, maxBody/len(az)+2)
	stride := pop.Users / cfg.Sessions
	if stride < 1 {
		stride = 1
	}
	for k := 0; k < cfg.Sessions; k++ {
		u := (k * stride) % pop.Users
		e.sessions = append(e.sessions, &session{
			user: u,
			next: k % thinkMax, // stagger first sends
		})
	}
	return e
}

// Auditors exposes the run's auditors (valid during OnTick and after Run).
func (e *Engine) Auditors() *Auditors { return e.aud }

// CreditRetrieved forwards out-of-band deliveries (e.g. a pre-migration
// drain) to the auditors so the no-loss ledger stays balanced.
func (e *Engine) CreditRetrieved(u int, ids []mail.MessageID) {
	e.touch(u)
	e.aud.creditIDs(u, ids)
}

func (e *Engine) touch(u int) {
	if !e.touched[u] {
		e.touched[u] = true
		e.sweepList = append(e.sweepList, u)
	}
}

// pickRecipient draws one recipient ≠ from. The baseline draw is local to
// the sender's region with probability LocalBias; an active profile overrides
// the host choice — hot-spot and in-window flash draws concentrate on the
// hot host set, diurnal draws weight regions by the rolling wave.
func (e *Engine) pickRecipient(from, tick int) int {
	pop := e.drv.Population()
	prof := e.cfg.Profile
	for try := 0; try < 8; try++ {
		var gh int
		switch {
		case prof.active(tick) && prof.Kind != "diurnal" && e.rng.Float64() < prof.HotFraction:
			hot := prof.HotHosts
			if hot > pop.TotalHosts() {
				hot = pop.TotalHosts()
			}
			gh = e.rng.Intn(hot)
		case prof.active(tick) && prof.Kind == "diurnal":
			gh = e.diurnalHost(tick)
		case e.rng.Float64() < e.cfg.Workload.LocalBias:
			r := pop.RegionOf(from)
			gh = r*pop.HostsPerRegion + e.rng.Intn(pop.HostsPerRegion)
		default:
			gh = e.rng.Intn(pop.TotalHosts())
		}
		n := pop.UsersOnHost(gh)
		if n == 0 {
			continue
		}
		u := e.rng.Intn(n)*pop.TotalHosts() + gh
		if u != from && u < pop.Users {
			return u
		}
	}
	return (from + 1) % pop.Users
}

// diurnalHost samples a host with its region drawn from the wave weights.
func (e *Engine) diurnalHost(tick int) int {
	pop := e.drv.Population()
	total := 0.0
	weights := make([]float64, pop.Regions)
	for r := range weights {
		weights[r] = e.cfg.Profile.regionWeight(r, pop.Regions, tick)
		total += weights[r]
	}
	x := e.rng.Float64() * total
	r := 0
	for ; r < len(weights)-1; r++ {
		if x < weights[r] {
			break
		}
		x -= weights[r]
	}
	return r*pop.HostsPerRegion + e.rng.Intn(pop.HostsPerRegion)
}

// think samples the sender's pause until its next send; during a flash-crowd
// window everyone types as fast as they can.
func (e *Engine) think(tick int) int {
	if e.cfg.Profile.Kind == "flash" && e.cfg.Profile.active(tick) {
		return thinkMin
	}
	return sampleThink(e.rng)
}

func (e *Engine) fire(s *session, tick int, rep *Report) {
	w := e.cfg.Workload
	n := w.sampleRecipients(e.rng)
	rcpts := e.rcpts[:0]
	seen := map[int]bool{s.user: true}
	for len(rcpts) < n {
		u := e.pickRecipient(s.user, tick)
		if seen[u] {
			break // small population: accept fewer recipients over looping
		}
		seen[u] = true
		rcpts = append(rcpts, u)
	}
	e.rcpts = rcpts
	if len(rcpts) == 0 {
		return
	}
	off := tick % len(az)
	body := e.alphabet[off : off+sampleBody(e.rng)]
	id, err := e.drv.Submit(s.user, rcpts, "bench", body)
	if err != nil {
		// No commit: every authority server of the sender was down. The
		// closed loop retries after a think; nothing is owed to the ledger.
		return
	}
	e.submitted++
	rep.Submitted++
	rep.Copies += len(rcpts)
	if k, ok := obs.ParseKey(id); ok {
		e.committed = append(e.committed, k)
		e.aud.recordSubmit(k, rcpts)
	} else {
		e.aud.RecordSubmit(id, rcpts) // unledgered, under its text
	}
	e.touch(s.user)
	for _, u := range rcpts {
		e.touch(u)
	}
}

// sweep retrieves for every touched user; returns copies retrieved.
func (e *Engine) sweep(rep *Report) int {
	got := 0
	for _, u := range e.sweepList {
		res := e.drv.Retrieve(u)
		rep.Retrievals++
		rep.Polls += res.Polls
		rep.Duplicates += res.Duplicates
		e.aud.RecordRetrieve(u, res)
		got += len(res.IDs)
	}
	return got
}

// Run executes the closed loop: inject due faults, fire ready sessions,
// sweep retrievals, advance one tick — until the horizon is past and the
// message budget is spent — then drain, settle, and close the audit.
func (e *Engine) Run() Report {
	pop := e.drv.Population()
	// An active rebalancer also relaxes the strict poll audit: every
	// migration hands the user a fresh authority list, whose first retrieval
	// legitimately polls the whole list.
	rb, _ := e.drv.(PlacementRebalancer)
	rebalancing := rb != nil && rb.RebalanceActive()
	pollStrict := e.cfg.Schedule == nil && e.OnTick == nil && !rebalancing
	e.aud = NewAuditors(pop.AuthorityLen, pollStrict)
	var rep Report

	inj := e.drv.Injector()
	var events []faults.Event
	if e.cfg.Schedule != nil {
		events = e.cfg.Schedule.Events
	}
	nextEvent := 0

	// Hard cap: horizon plus a generous allowance of ticks per undrawn
	// message, so a stalled driver cannot loop forever.
	hardCap := e.cfg.Ticks + 4*e.cfg.Messages + 64
	tick := 0
	for tick < e.cfg.Ticks || e.submitted < e.cfg.Messages {
		if tick >= hardCap {
			break
		}
		for nextEvent < len(events) && events[nextEvent].Tick <= tick {
			_ = inj.Inject(events[nextEvent])
			nextEvent++
		}
		for _, s := range e.sessions {
			if tick >= s.next && e.submitted < e.cfg.Messages {
				e.fire(s, tick, &rep)
				s.next = tick + e.think(tick)
			}
		}
		if tick > 0 && tick%e.cfg.RetrieveEvery == 0 {
			e.sweep(&rep)
		}
		e.drv.Step(1)
		if rebalancing {
			for _, m := range rb.RebalanceTick(tick) {
				if m.Moved {
					rep.Migrations++
				}
				if len(m.Drained) > 0 {
					e.CreditRetrieved(m.User, m.Drained)
				}
			}
		}
		if e.OnTick != nil {
			e.OnTick(tick)
		}
		tick++
	}
	// Close any windows past the loop (cap exits only).
	for nextEvent < len(events) {
		_ = inj.Inject(events[nextEvent])
		nextEvent++
	}
	rep.Ticks = tick

	// Drain: settle in-flight work, then sweep until settleRounds
	// consecutive sweeps retrieve nothing.
	e.drv.Settle()
	empty := 0
	for round := 0; round < maxSettle && empty < settleRounds; round++ {
		if e.sweep(&rep) == 0 {
			empty++
		} else {
			empty = 0
		}
		e.drv.Step(1)
		e.drv.Settle()
	}

	e.aud.FinishOutstanding()
	e.aud.RecordTraceGaps(e.drv.Tracer().Incomplete(e.committed))

	rep.Ok = e.aud.Ok()
	rep.Violations = e.aud.Counts()
	rep.Examples = e.aud.Violations()
	rep.Loads = e.drv.ServerLoads()
	return rep
}
