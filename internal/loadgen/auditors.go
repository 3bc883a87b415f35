package loadgen

import (
	"fmt"
	"sort"
)

// Violation kinds reported by the auditors.
const (
	ViolationLost       = "lost"            // committed copy never retrieved
	ViolationDuplicate  = "duplicate"       // copy delivered to a user twice
	ViolationUnledgered = "unledgered"      // retrieved copy never committed
	ViolationMonotone   = "monotone_lct"    // LastCheckingTime moved backwards
	ViolationPolls      = "poll_efficiency" // §3.1.2c ≈1-poll guarantee broken
	ViolationTraceGap   = "trace_gap"       // committed message with incomplete span chain

	// Architecture-scenario kinds (the §3.2 / §3.3 shoot-out auditors).
	ViolationRoamOverhead      = "roam_overhead"      // §3.2.2c: consultation for a user at their primary host
	ViolationBroadcastLoss     = "broadcast_loss"     // matching live user missed a broadcast copy
	ViolationConvergecastBound = "convergecast_bound" // convergecast completed past the timeout bound
	ViolationPartialUnflagged  = "partial_unflagged"  // incomplete aggregate not marked partial
)

// maxViolationDetail caps the per-violation examples kept; totals keep
// counting past the cap.
const maxViolationDetail = 20

// Auditors checks the run's correctness invariants online, as the engine
// ledgers submissions and retrievals:
//
//   - exactly-once: each committed (message, recipient) copy is delivered
//     to that user's inbox exactly once — never twice (duplicate), never
//     zero times by the end (lost), and nothing arrives that was never
//     committed (unledgered);
//   - monotone LastCheckingTime: a user's checkpoint never moves backwards
//     (GetMail's correctness hinges on it only advancing);
//   - poll efficiency, in failure-free runs only: the first retrieval polls
//     the whole authority list (LastCheckingTime(0) is never newer than a
//     LastStartTime), every later one polls exactly one server — the
//     §3.1.2c "will not check servers when it is sure that they do not
//     store any messages" guarantee, asserted per retrieval rather than on
//     averages.
//
// The final trace audit (RecordTraceGaps) closes the loop against the obs
// tracer: every committed message must show a complete submit → deposit →
// retrieve span chain.
type Auditors struct {
	authorityLen int
	pollStrict   bool

	outstanding map[copyKey]bool // committed copies not yet retrieved
	seen        map[copyKey]bool // copies retrieved at least once
	lastCheck   map[int]int64
	retrievals  map[int]int

	counts map[string]int
	detail []string
	total  int
}

// NewAuditors returns auditors for a run. pollStrict enables the
// per-retrieval poll-efficiency check; it must be false for runs with
// injected faults or reconfigurations, where extra polls are the algorithm
// working as designed.
func NewAuditors(authorityLen int, pollStrict bool) *Auditors {
	return &Auditors{
		authorityLen: authorityLen,
		pollStrict:   pollStrict,
		outstanding:  make(map[copyKey]bool),
		seen:         make(map[copyKey]bool),
		lastCheck:    make(map[int]int64),
		retrievals:   make(map[int]int),
		counts:       make(map[string]int),
	}
}

// PollStrict reports whether the poll-efficiency check is armed.
func (a *Auditors) PollStrict() bool { return a.pollStrict }

// DisablePolls turns the poll-efficiency check off (fault injection or
// reconfiguration began after construction).
func (a *Auditors) DisablePolls() { a.pollStrict = false }

// copyKey identifies one committed copy in the ledger: a message ID and the
// recipient it is owed to. It is rendered as text only when a violation
// names it.
type copyKey struct {
	id string
	u  int
}

func (k copyKey) String() string { return fmt.Sprintf("%s@u%d", k.id, k.u) }

func (a *Auditors) violate(kind, detail string) {
	a.counts[kind]++
	a.total++
	if len(a.detail) < maxViolationDetail {
		a.detail = append(a.detail, kind+": "+detail)
	}
}

// RecordSubmit ledgers a committed message: one copy owed per recipient.
func (a *Auditors) RecordSubmit(id string, rcpts []int) {
	for _, u := range rcpts {
		a.outstanding[copyKey{id, u}] = true
	}
}

// CreditRetrieved marks copies retrieved for user u without running the
// retrieval-shape checks — for deliveries outside a normal sweep, like the
// pre-migration drain of §3.1.4.
func (a *Auditors) CreditRetrieved(u int, ids []string) {
	for _, id := range ids {
		key := copyKey{id, u}
		switch {
		case a.seen[key]:
			a.violate(ViolationDuplicate, key.String())
		case a.outstanding[key]:
			delete(a.outstanding, key)
			a.seen[key] = true
		default:
			a.violate(ViolationUnledgered, key.String())
			a.seen[key] = true
		}
	}
}

// RecordRetrieve ledgers one GetMail invocation by user u.
func (a *Auditors) RecordRetrieve(u int, res RetrieveResult) {
	a.CreditRetrieved(u, res.IDs)
	if last, ok := a.lastCheck[u]; ok && res.LastChecking < last {
		a.violate(ViolationMonotone,
			fmt.Sprintf("u%d: LastCheckingTime %d after %d", u, res.LastChecking, last))
	}
	a.lastCheck[u] = res.LastChecking
	first := a.retrievals[u] == 0
	a.retrievals[u]++
	if !a.pollStrict {
		return
	}
	if first {
		if res.Polls < 1 || res.Polls > a.authorityLen {
			a.violate(ViolationPolls,
				fmt.Sprintf("u%d: first retrieval polled %d servers, want 1..%d",
					u, res.Polls, a.authorityLen))
		}
		return
	}
	if res.Polls != 1 {
		a.violate(ViolationPolls,
			fmt.Sprintf("u%d: failure-free retrieval polled %d servers, want exactly 1",
				u, res.Polls))
	}
}

// RecordViolation ledgers a scenario-specific invariant breach detected
// outside the built-in checks — the roaming-overhead and broadcast auditors
// feed their findings through here so every report shares one funnel.
func (a *Auditors) RecordViolation(kind, detail string) { a.violate(kind, detail) }

// RecordTraceGaps ledgers the final trace audit: each entry is a committed
// message ID whose lifecycle span chain is missing or incomplete.
func (a *Auditors) RecordTraceGaps(ids []string) {
	for _, id := range ids {
		a.violate(ViolationTraceGap, id)
	}
}

// FinishOutstanding converts every still-outstanding committed copy into a
// loss violation. Call after the settle sweeps.
func (a *Auditors) FinishOutstanding() {
	keys := make([]string, 0, len(a.outstanding))
	for k := range a.outstanding {
		keys = append(keys, k.String())
	}
	sort.Strings(keys)
	for _, k := range keys {
		a.violate(ViolationLost, k)
	}
}

// Ok reports whether no invariant was violated.
func (a *Auditors) Ok() bool { return a.total == 0 }

// Total reports the violation count across all kinds.
func (a *Auditors) Total() int { return a.total }

// Counts returns violation totals by kind.
func (a *Auditors) Counts() map[string]int {
	out := make(map[string]int, len(a.counts))
	for k, v := range a.counts {
		out[k] = v
	}
	return out
}

// Violations returns up to maxViolationDetail example violations, in
// detection order.
func (a *Auditors) Violations() []string {
	return append([]string(nil), a.detail...)
}

// Outstanding reports how many committed copies are still owed.
func (a *Auditors) Outstanding() int { return len(a.outstanding) }
