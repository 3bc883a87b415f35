// Package evalsys holds the paper's §4 performance criteria for evaluating
// mail systems: efficiency, reliability, flexibility, and cost. A Report is
// filled from one audited run of one design (internal/experiments' E11).
//
// "Some of these performance measures may have conflicting requirements
// with each other ... it is necessary for designers and administrators to
// weigh different alternatives and strike a balance" — so the package
// reports the raw measures per criterion and a weighted roll-up the caller
// controls, rather than a single opinionated score.
package evalsys

import (
	"fmt"
	"math"
	"strings"

	"github.com/largemail/largemail/internal/obs"
)

// Efficiency covers §4.1: "connection set-up time, message transportation,
// message delivery, name resolution, message storage, ... and receiving
// server notification for existence of mail." Of those, a run measures
// retrieval polls and notification.
type Efficiency struct {
	MeanPollsPerCheck float64 // polls per retrieval (GetMail ≈ 1)
	NotifyRate        float64 // alerts to online users (at deposit, at login, located by §3.2.2c) per delivered copy
}

// Reliability covers §4.2: "mail-service availability, message flow
// control, buffer clean-up, and consistency."
type Reliability struct {
	DeliveredRate float64 // copies delivered / copies submitted (1.0 = no loss)
	DuplicateRate float64 // duplicate deposits suppressed / delivered
	RetriesPerMsg float64 // transfer retries per delivered message
}

// Flexibility covers §4.3: "user migration, group naming, system
// reconfiguration, and user interface design." These are facts of a
// design, not measures of a run.
type Flexibility struct {
	RenamesPerMigration   float64 // 1.0 for syntax-directed, 0 for location-independent intra-region moves
	SupportsAttributeSend bool    // group naming via attributes
	RoamingSupported      bool
}

// Cost covers §4.4: "response time, storage space used, implementation
// overhead."
type Cost struct {
	TotalTrafficCost float64 // edge-weight cost of all delivered traffic
	TotalMessages    int64
	MeanResponseTime float64 // time units, submission → retrieval
}

// Report bundles the four criteria for one run of one design.
type Report struct {
	System      string
	Efficiency  Efficiency
	Reliability Reliability
	Flexibility Flexibility
	Cost        Cost
}

// Score rolls the report into a single comparable figure in [0, 1], where
// higher is better. Each criterion is first normalized into [0, 1] with
// simple clamped transforms; their mean follows. The transforms
// are documented inline — the point is comparability between designs run on
// the same workload, not absolute meaning.
func (r Report) Score() float64 {
	// Efficiency: polls close to 1 are good.
	eff := clamp01(1 / math.Max(r.Efficiency.MeanPollsPerCheck, 1))
	// Reliability: the delivery rate.
	rel := clamp01(r.Reliability.DeliveredRate)
	// Flexibility: no renames, roaming and attribute sends are good.
	flex := 0.0
	if r.Flexibility.RenamesPerMigration == 0 {
		flex += 0.4
	}
	if r.Flexibility.RoamingSupported {
		flex += 0.3
	}
	if r.Flexibility.SupportsAttributeSend {
		flex += 0.3
	}
	// Cost: cheaper traffic per message is better.
	perMsg := 0.0
	if r.Cost.TotalMessages > 0 {
		perMsg = r.Cost.TotalTrafficCost / float64(r.Cost.TotalMessages)
	}
	cost := clamp01(1 / (1 + perMsg))
	return (eff + rel + flex + cost) / 4
}

func clamp01(v float64) float64 {
	if math.IsNaN(v) || v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Render formats the report as an aligned table for the experiment output.
func (r Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "§4 criteria — %s\n", r.System)
	t := obs.NewTable("", "criterion", "measure", "value")
	t.AddRow("efficiency", "polls per retrieval", r.Efficiency.MeanPollsPerCheck)
	t.AddRow("efficiency", "alerts per delivery", r.Efficiency.NotifyRate)
	t.AddRow("reliability", "delivered rate", r.Reliability.DeliveredRate)
	t.AddRow("reliability", "duplicates per message", r.Reliability.DuplicateRate)
	t.AddRow("reliability", "retries per message", r.Reliability.RetriesPerMsg)
	t.AddRow("flexibility", "renames per migration", r.Flexibility.RenamesPerMigration)
	t.AddRow("flexibility", "attribute send", r.Flexibility.SupportsAttributeSend)
	t.AddRow("flexibility", "roaming", r.Flexibility.RoamingSupported)
	t.AddRow("cost", "total traffic cost", r.Cost.TotalTrafficCost)
	t.AddRow("cost", "total messages", r.Cost.TotalMessages)
	t.AddRow("cost", "mean response time (u)", r.Cost.MeanResponseTime)
	b.WriteString(t.Render())
	return b.String()
}
