package loadgen

import (
	"fmt"
	"sort"

	"github.com/largemail/largemail/internal/mail"
	"github.com/largemail/largemail/internal/obs"
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

	copies     map[copyKey]copyState // every copy committed or retrieved
	lastCheck  map[int]int64
	retrievals map[int]int

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
		copies:       make(map[copyKey]copyState),
		lastCheck:    make(map[int]int64),
		retrievals:   make(map[int]int),
		counts:       make(map[string]int),
	}
}

// copyKey identifies one copy in the ledger: a message ID and the recipient
// it is owed to. It is rendered as text only when a violation names it.
type copyKey struct {
	id obs.Key
	u  int
}

func (k copyKey) String() string { return copyText(k.id, k.u) }

func copyText(id any, u int) string { return fmt.Sprintf("%v@u%d", id, u) }

// copyState is what the ledger knows of a copy: owed (committed and not yet
// retrieved), retrieved, or both — a copy retrieved before its submit was
// ledgered is unledgered then and lost at the end, whatever comes after.
type copyState uint8

const (
	copyOwed copyState = 1 << iota
	copyRetrieved
)

func (a *Auditors) violate(kind, detail string) {
	a.counts[kind]++
	a.total++
	if len(a.detail) < maxViolationDetail {
		a.detail = append(a.detail, kind+": "+detail)
	}
}

// RecordSubmit ledgers a committed message: one copy owed per recipient. An
// id that is no message ID's text is an unledgered copy per recipient.
func (a *Auditors) RecordSubmit(id string, rcpts []int) {
	if k, ok := obs.ParseKey(id); ok {
		a.recordSubmit(k, rcpts)
		return
	}
	for _, u := range rcpts {
		a.violate(ViolationUnledgered, copyText(id, u))
	}
}

// recordSubmit is RecordSubmit for an ID held as a value.
func (a *Auditors) recordSubmit(id obs.Key, rcpts []int) {
	for _, u := range rcpts {
		a.copies[copyKey{id, u}] |= copyOwed
	}
}

// CreditRetrieved marks copies retrieved for user u without running the
// retrieval-shape checks. An id that is no message ID's text is unledgered.
func (a *Auditors) CreditRetrieved(u int, ids []string) {
	for _, id := range ids {
		if k, ok := obs.ParseKey(id); ok {
			a.credit(copyKey{k, u})
		} else {
			a.violate(ViolationUnledgered, copyText(id, u))
		}
	}
}

// creditIDs is CreditRetrieved for IDs held as values — for deliveries
// outside a normal sweep, like the pre-migration drain of §3.1.4.
func (a *Auditors) creditIDs(u int, ids []mail.MessageID) {
	for _, id := range ids {
		a.credit(copyKey{id.TraceKey(), u})
	}
}

func (a *Auditors) credit(key copyKey) {
	st := a.copies[key]
	switch {
	case st&copyRetrieved != 0:
		a.violate(ViolationDuplicate, key.String())
		return
	case st&copyOwed == 0:
		a.violate(ViolationUnledgered, key.String())
	}
	a.copies[key] = copyRetrieved
}

// RecordRetrieve ledgers one GetMail invocation by user u.
func (a *Auditors) RecordRetrieve(u int, res RetrieveResult) {
	a.creditIDs(u, res.IDs)
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
// message whose lifecycle span chain is missing or incomplete.
func (a *Auditors) RecordTraceGaps(ids []obs.Key) {
	var gaps []string
	for _, id := range ids {
		gaps = append(gaps, id.String())
	}
	a.violateSorted(ViolationTraceGap, gaps)
}

// FinishOutstanding converts every copy still owed into a loss violation.
// Call after the settle sweeps.
func (a *Auditors) FinishOutstanding() {
	var lost []string
	for k, st := range a.copies {
		if st&copyOwed != 0 {
			lost = append(lost, k.String())
		}
	}
	a.violateSorted(ViolationLost, lost)
}

// violateSorted ledgers one violation per detail, in the order of the text.
func (a *Auditors) violateSorted(kind string, details []string) {
	sort.Strings(details)
	for _, d := range details {
		a.violate(kind, d)
	}
}

// Ok reports whether no invariant was violated.
func (a *Auditors) Ok() bool { return a.total == 0 }

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
