package faults

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"github.com/largemail/largemail/internal/core"
	"github.com/largemail/largemail/internal/livenet"
	"github.com/largemail/largemail/internal/names"
	"github.com/largemail/largemail/internal/sim"
)

// System is the transport-side contract of a chaos soak: a mail system the
// harness can submit into, retrieve from, and advance in schedule ticks.
// Both the discrete-event simulation (SimSystem) and the live goroutine
// cluster (LiveSystem) satisfy it, which is what lets one soak loop assert
// the same invariant on both transports.
type System interface {
	// Users returns every user name, in a stable order.
	Users() []string
	// Submit sends one message with the given subject token.
	Submit(from, to, subject string) error
	// Retrieve runs the user's GetMail and returns the subjects of newly
	// retrieved messages.
	Retrieve(user string) []string
	// Committed returns the subjects the system has durably accepted —
	// the set the no-loss invariant is checked against. Submissions that
	// never commit (e.g. dropped before acceptance) owe nothing.
	Committed() []string
	// Step advances the system by n schedule ticks.
	Step(n int)
	// Settle lets in-flight work finish: the simulator runs to
	// quiescence, the live cluster waits for its spool to drain.
	Settle()
}

// TraceAuditor is the optional observability contract of a soak system: one
// that can cross-check the message-lifecycle traces (internal/obs) against
// its commit ledger. When a System implements it, Soak records the audit in
// SoakResult.TraceGaps and Ok requires it to pass — every committed message
// must show a complete submit → deposit → retrieve span chain, even when its
// delivery crossed crash/recover windows.
type TraceAuditor interface {
	// AuditTraces returns one entry per committed message whose span chain
	// is missing or incomplete, formatted "subject (id)", sorted.
	AuditTraces() []string
}

// SimSystem adapts a core.SyntaxSystem to the soak. One schedule tick is
// Tick units of virtual time, so soaks on the simulator are fully
// deterministic and cost no wall-clock.
type SimSystem struct {
	Sys  *core.SyntaxSystem
	Tick sim.Time

	users  []string
	byName map[string]names.Name
}

// NewSimSystem wraps a wired simulation system. tick is the virtual length
// of one schedule tick (e.g. 10*sim.Unit).
func NewSimSystem(sys *core.SyntaxSystem, tick sim.Time) *SimSystem {
	s := &SimSystem{Sys: sys, Tick: tick, byName: make(map[string]names.Name)}
	for _, u := range sys.Users() {
		s.users = append(s.users, u.String())
		s.byName[u.String()] = u
	}
	return s
}

// Users implements System.
func (s *SimSystem) Users() []string { return append([]string(nil), s.users...) }

// Submit implements System. A submission commits when its SubmitAck reaches
// the sending host; acks echo the subject, which is how Committed maps them
// back to soak tokens.
func (s *SimSystem) Submit(from, to, subject string) error {
	agent, err := s.Sys.Agent(s.byName[from])
	if err != nil {
		return err
	}
	_, err = agent.Send([]names.Name{s.byName[to]}, subject, "chaos soak")
	return err
}

// Retrieve implements System.
func (s *SimSystem) Retrieve(user string) []string {
	agent, err := s.Sys.Agent(s.byName[user])
	if err != nil {
		return nil
	}
	var subjects []string
	for _, m := range agent.GetMail() {
		subjects = append(subjects, m.Subject)
	}
	return subjects
}

// Committed implements System: every subject acked back to a host.
func (s *SimSystem) Committed() []string {
	var out []string
	for _, h := range s.Sys.Hosts() {
		for _, ack := range h.Acks() {
			out = append(out, ack.Subject)
		}
	}
	return out
}

// Step implements System.
func (s *SimSystem) Step(n int) { s.Sys.RunFor(sim.Time(n) * s.Tick) }

// Settle implements System: run the scheduler to quiescence so server
// retry timers and in-flight transfers complete.
func (s *SimSystem) Settle() { s.Sys.Run() }

// AuditTraces implements TraceAuditor against the deployment-wide tracer:
// every acked (committed) message must have a complete span chain.
func (s *SimSystem) AuditTraces() []string {
	subjects := make(map[string]string) // id -> subject
	var ids []string
	for _, h := range s.Sys.Hosts() {
		for _, ack := range h.Acks() {
			id := ack.ID.String()
			if _, dup := subjects[id]; dup {
				continue
			}
			subjects[id] = ack.Subject
			ids = append(ids, id)
		}
	}
	var out []string
	for _, id := range s.Sys.Tracer().Incomplete(ids) {
		out = append(out, fmt.Sprintf("%s (%s)", subjects[id], id))
	}
	return out
}

// LiveSystem adapts a livenet.Cluster to the soak. One schedule tick is
// Tick of wall-clock time. Agents must be pre-registered with AddUser.
type LiveSystem struct {
	Cluster *livenet.Cluster
	Tick    time.Duration
	// SettleTimeout caps how long Settle waits for the spool to drain
	// (default 10s).
	SettleTimeout time.Duration

	users     []string
	byName    map[string]names.Name
	agents    map[string]*livenet.Agent
	committed []string
	ids       []string          // committed message IDs, submit order
	subjects  map[string]string // committed id -> subject
}

// NewLiveSystem wraps a live cluster. tick is the wall-clock length of one
// schedule tick (e.g. time.Millisecond). AuditTraces reads the trace of every
// committed message after the soak, so the cluster's tracer is told to keep
// them all.
func NewLiveSystem(c *livenet.Cluster, tick time.Duration) *LiveSystem {
	c.Tracer().KeepAll()
	return &LiveSystem{
		Cluster: c, Tick: tick,
		byName:   make(map[string]names.Name),
		agents:   make(map[string]*livenet.Agent),
		subjects: make(map[string]string),
	}
}

// AddUser registers a soak participant; the user must already have an
// authority list in the cluster directory.
func (s *LiveSystem) AddUser(u names.Name) error {
	a, err := s.Cluster.NewAgent(u)
	if err != nil {
		return err
	}
	s.users = append(s.users, u.String())
	s.byName[u.String()] = u
	s.agents[u.String()] = a
	return nil
}

// Users implements System.
func (s *LiveSystem) Users() []string { return append([]string(nil), s.users...) }

// Submit implements System. The live transport commits synchronously: a nil
// error from Cluster.Submit means the message was deposited or spooled for
// guaranteed redelivery.
func (s *LiveSystem) Submit(from, to, subject string) error {
	id, err := s.Cluster.Submit(s.byName[from], []names.Name{s.byName[to]}, subject, "chaos soak")
	if err == nil {
		s.committed = append(s.committed, subject)
		s.ids = append(s.ids, id.String())
		s.subjects[id.String()] = subject
	}
	return err
}

// Retrieve implements System.
func (s *LiveSystem) Retrieve(user string) []string {
	a, ok := s.agents[user]
	if !ok {
		return nil
	}
	var subjects []string
	for _, m := range a.GetMail() {
		subjects = append(subjects, m.Subject)
	}
	return subjects
}

// Committed implements System.
func (s *LiveSystem) Committed() []string { return append([]string(nil), s.committed...) }

// Step implements System.
func (s *LiveSystem) Step(n int) { time.Sleep(time.Duration(n) * s.Tick) }

// Settle implements System: wait for the redelivery spool to drain. Once
// the spool is empty every accepted message sits in some authority
// mailbox, so a retrieval sweep can find it.
func (s *LiveSystem) Settle() {
	timeout := s.SettleTimeout
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	deadline := time.Now().Add(timeout)
	for s.Cluster.SpoolDepth() > 0 && time.Now().Before(deadline) {
		time.Sleep(2 * s.Tick)
	}
}

// AuditTraces implements TraceAuditor against the cluster's tracer: every
// committed message must have a complete span chain, spool redeliveries and
// crash windows included.
func (s *LiveSystem) AuditTraces() []string {
	var out []string
	for _, id := range s.Cluster.Tracer().Incomplete(s.ids) {
		out = append(out, fmt.Sprintf("%s (%s)", s.subjects[id], id))
	}
	return out
}

// SoakConfig tunes the workload the harness applies alongside a schedule.
type SoakConfig struct {
	Messages      int // total submissions, spread over the schedule horizon
	RetrieveEvery int // run every user's GetMail each N ticks (default 5)
	SettleRounds  int // consecutive empty retrieval sweeps to finish (default 3)
	MaxSettle     int // cap on settle sweeps (default 200)
}

func (c SoakConfig) withDefaults() SoakConfig {
	if c.RetrieveEvery <= 0 {
		c.RetrieveEvery = 5
	}
	if c.SettleRounds <= 0 {
		c.SettleRounds = 3
	}
	if c.MaxSettle <= 0 {
		c.MaxSettle = 200
	}
	return c
}

// SoakResult is the ledger of one chaos run. The E2 invariant holds iff
// Lost and Duplicates are both empty.
type SoakResult struct {
	Submitted    int // submissions attempted
	SubmitErrors int // submissions rejected synchronously
	Committed    int // submissions durably accepted
	Received     int // distinct subjects retrieved
	Uncommitted  int // attempted but never accepted (owed nothing)
	Events       int // fault events injected

	Lost       []string // committed subjects never retrieved
	Duplicates []string // subjects retrieved more than once
	// TraceGaps lists committed messages with missing or incomplete
	// lifecycle span chains, when the system implements TraceAuditor.
	TraceGaps []string
}

// Ok reports whether the run preserved the no-loss / no-duplication
// invariant and (when audited) left no lifecycle trace incomplete.
func (r SoakResult) Ok() bool {
	return len(r.Lost) == 0 && len(r.Duplicates) == 0 && len(r.TraceGaps) == 0
}

func (r SoakResult) String() string {
	return fmt.Sprintf("soak: %d submitted (%d errors), %d committed, %d received, %d lost, %d duplicated, %d trace gaps, %d fault events",
		r.Submitted, r.SubmitErrors, r.Committed, r.Received, len(r.Lost), len(r.Duplicates), len(r.TraceGaps), r.Events)
}

// Soak drives sys through the schedule while submitting cfg.Messages
// messages between random user pairs, then settles and audits: every
// committed subject must be retrieved exactly once. The workload is derived
// from the schedule seed, so a sim soak with the same spec reproduces the
// identical run.
func Soak(sys System, inj Injector, sched Schedule, cfg SoakConfig) (SoakResult, error) {
	cfg = cfg.withDefaults()
	users := sys.Users()
	var res SoakResult
	if len(users) < 2 {
		return res, errors.New("faults: soak needs at least two users")
	}
	horizon := sched.Horizon()
	if horizon == 0 {
		horizon = 1
	}
	rng := rand.New(rand.NewSource(sched.Seed ^ 0x5eed))

	counts := make(map[string]int) // subject -> times retrieved
	retrieveAll := func() (got int) {
		for _, u := range users {
			for _, subject := range sys.Retrieve(u) {
				counts[subject]++
				got++
			}
		}
		return got
	}

	perTick, extra := cfg.Messages/horizon, cfg.Messages%horizon
	next := 0 // index into sched.Events
	seq := 0
	for tick := 0; tick < horizon; tick++ {
		for next < len(sched.Events) && sched.Events[next].Tick <= tick {
			if err := inj.Inject(sched.Events[next]); err != nil {
				return res, fmt.Errorf("tick %d: %w", tick, err)
			}
			res.Events++
			next++
		}
		quota := perTick
		if tick < extra {
			quota++
		}
		for i := 0; i < quota; i++ {
			from := users[rng.Intn(len(users))]
			to := users[rng.Intn(len(users))]
			subject := fmt.Sprintf("chaos-%d", seq)
			seq++
			res.Submitted++
			if err := sys.Submit(from, to, subject); err != nil {
				res.SubmitErrors++
			}
		}
		if tick%cfg.RetrieveEvery == 0 {
			retrieveAll()
		}
		sys.Step(1)
	}

	// Every window the schedule opened is closed by now (Compile pairs
	// them within the horizon): the system is fault-free. Let in-flight
	// work finish, then sweep retrievals until nothing new shows up.
	sys.Settle()
	quiet := 0
	for round := 0; quiet < cfg.SettleRounds && round < cfg.MaxSettle; round++ {
		if retrieveAll() == 0 {
			quiet++
		} else {
			quiet = 0
			sys.Settle()
		}
		sys.Step(1)
	}

	committed := make(map[string]bool)
	for _, subject := range sys.Committed() {
		committed[subject] = true
	}
	res.Committed = len(committed)
	res.Uncommitted = res.Submitted - res.Committed
	res.Received = len(counts)
	for subject, n := range counts {
		if n > 1 {
			res.Duplicates = append(res.Duplicates, subject)
		}
	}
	for subject := range committed {
		if counts[subject] == 0 {
			res.Lost = append(res.Lost, subject)
		}
	}
	sort.Strings(res.Lost)
	sort.Strings(res.Duplicates)
	if auditor, ok := sys.(TraceAuditor); ok {
		res.TraceGaps = auditor.AuditTraces()
	}
	return res, nil
}
