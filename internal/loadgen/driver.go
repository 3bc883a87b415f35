package loadgen

import (
	"github.com/largemail/largemail/internal/faults"
	"github.com/largemail/largemail/internal/mail"
	"github.com/largemail/largemail/internal/obs"
)

// RetrieveResult is what one GetMail invocation yielded, in the units the
// auditors check.
type RetrieveResult struct {
	// IDs are the message IDs newly retrieved, as values, one entry per
	// stored copy that reached the user's inbox this retrieval. The slice is
	// valid until the driver's next Retrieve, which may reuse it.
	IDs []mail.MessageID
	// Polls is how many CheckMail calls this retrieval issued — the
	// §3.1.2c efficiency metric (≈1 when failure-free after the first
	// retrieval, which must poll the whole authority list).
	Polls int
	// Duplicates is how many retrieved copies the agent's dedup suppressed
	// this retrieval (retries and failovers may leave extra server copies;
	// the agent delivering each message once is part of the design).
	Duplicates int
	// LastChecking is the agent's LastCheckingTime after the retrieval, in
	// the transport's clock units (microticks or ns). It must never move
	// backwards.
	LastChecking int64
}

// ServerLoad pairs one server's predicted load — from the §3.1.1 assignment
// the driver ran at build time — with what the run actually deposited there,
// so capacity reports can compare the balancer's Q(ρ)=ρ/(1−ρ) waiting
// estimate against observed behavior.
type ServerLoad struct {
	Name     string  `json:"name"`
	Region   string  `json:"region"`
	Load     int     `json:"load"`     // L_j: users assigned
	MaxLoad  int     `json:"max_load"` // M_j: capacity
	Rho      float64 `json:"rho"`      // ρ_j = L_j / M_j
	QWait    float64 `json:"q_wait"`   // Q(ρ_j) predicted queueing wait
	Deposits int64   `json:"deposits"` // observed local deposits this run
}

// MigrationResult is what one placement migration yielded. Drained lists the
// message IDs the pre-handover drain delivered to the user out-of-band — the
// engine must credit them to the retrieval ledger or the no-loss audit would
// flag them missing. Moved is false when the migration was refused (a server
// involved was down, or the drain could not prove the old mailboxes empty);
// the drain may have yielded messages regardless.
type MigrationResult struct {
	User    int
	Drained []mail.MessageID
	Moved   bool
}

// PlacementRebalancer is the optional driver extension behind the online
// rebalancing placement policy (internal/placement). RebalanceActive reports
// whether the configured policy migrates on ticks; the engine then calls
// RebalanceTick once per tick after Step and credits the drained IDs.
type PlacementRebalancer interface {
	RebalanceActive() bool
	RebalanceTick(tick int) []MigrationResult
}

// Driver is the transport contract of the workload engine: a mail system
// the engine can submit into, retrieve from, advance in schedule ticks, and
// inject faults into. SimDriver and RoamDriver (netsim, event time),
// LiveDriver (livenet, wall clock) and WireDriver (livenet behind TCP) all
// satisfy it, which is what lets one engine and one auditor suite exercise
// every transport and both §3.1 and §3.2.
type Driver interface {
	// Population returns the population this driver was built for (with
	// defaults applied).
	Population() Population
	// Submit sends one message from user index from to the given user
	// indices. A nil error is the commit point: the message (every
	// recipient copy) is owed to the no-loss audit. An error means nothing
	// was accepted. Submit keeps nothing of to: the caller reuses it. id is
	// the message ID's text, which the engine parses once for its books.
	Submit(from int, to []int, subject, body string) (id string, err error)
	// Retrieve runs user u's GetMail.
	Retrieve(u int) RetrieveResult
	// Step advances the system by n schedule ticks.
	Step(n int)
	// Settle lets in-flight work finish (simulator quiescence / spool
	// drain).
	Settle()
	// Snapshot returns the run's instruments: per-stage "lat_*" histograms
	// plus transport counters.
	Snapshot() obs.Snapshot
	// Tracer returns the deployment-wide lifecycle tracer, for the final
	// trace-completeness audit.
	Tracer() *obs.Tracer
	// Injector returns the transport's fault injector.
	Injector() faults.Injector
	// FaultSurface returns a faults.Spec template with the transport's
	// safe fault candidates filled in (Servers, Links, DropTargets and, over
	// durable stores, KillTargets) and all window counts zero; callers set
	// counts, seed and ticks. The driver is the right owner of this knowledge: what is safe
	// to drop or partition differs per transport (see
	// Population.faultSurface's server-drop stranding hazard).
	FaultSurface() faults.Spec
	// ServerLoads returns predicted vs observed load per server.
	ServerLoads() []ServerLoad
}
