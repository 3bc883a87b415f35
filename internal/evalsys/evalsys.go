// Package evalsys computes the paper's §4 performance criteria for
// evaluating mail systems: efficiency, reliability, flexibility, and cost.
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
	"github.com/largemail/largemail/internal/sim"
)

// Efficiency covers §4.1: "connection set-up time, message transportation,
// message delivery, name resolution, message storage, ... and receiving
// server notification for existence of mail." Of those, the runs measure
// retrieval polls and notification.
type Efficiency struct {
	MeanPollsPerCheck float64 // polls per retrieval (GetMail ≈ 1)
	NotifyRate        float64 // fraction of deliveries that alerted an online user
}

// Reliability covers §4.2: "mail-service availability, message flow
// control, buffer clean-up, and consistency."
type Reliability struct {
	Availability  float64 // fraction of submissions that found a live server
	DeliveredRate float64 // delivered / submitted (1.0 = no loss)
	DuplicateRate float64 // duplicate deposits suppressed / delivered
	RetriesPerMsg float64 // transfer retries per delivered message
}

// Flexibility covers §4.3: "user migration, group naming, system
// reconfiguration, and user interface design."
type Flexibility struct {
	RenamesPerMigration   float64 // 1.0 for syntax-directed, 0 for location-independent intra-region moves
	ReconfigMessages      int64   // traffic caused by add/remove server
	SupportsAttributeSend bool    // group naming via attributes
	RoamingSupported      bool
}

// Cost covers §4.4: "response time, storage space used, implementation
// overhead."
type Cost struct {
	TotalTrafficCost float64 // edge-weight cost of all delivered traffic
	TotalMessages    int64
	StorageBytes     int64
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
// simple saturating transforms; their mean follows. The transforms
// are documented inline — the point is comparability between designs run on
// the same workload, not absolute meaning.
func (r Report) Score() float64 {
	// Efficiency: polls close to 1 are good.
	eff := saturating(1 / math.Max(r.Efficiency.MeanPollsPerCheck, 1))
	// Reliability: delivery rate dominates; availability seconds it.
	rel := clamp01(r.Reliability.DeliveredRate)*0.7 + clamp01(r.Reliability.Availability)*0.3
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
	cost := saturating(1 / (1 + perMsg))
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

func saturating(v float64) float64 { return clamp01(v) }

// Collector accumulates the raw observations a Report is computed from.
// The zero value is not usable; create with NewCollector.
type Collector struct {
	system string

	response obs.Summary

	submitted      int64
	submitFailures int64
	delivered      int64
	duplicates     int64
	retries        int64
	notified       int64

	polls      int64
	retrievals int64

	migrations int64
	renames    int64

	reconfigMessages int64
	trafficCostMilli int64
	messages         int64
	storageBytes     int64

	attributeSend bool
	roaming       bool
}

// NewCollector returns an empty collector for the named system.
func NewCollector(system string) *Collector {
	return &Collector{system: system}
}

// ObserveResponse records a submission→retrieval latency.
func (c *Collector) ObserveResponse(d sim.Time) { c.response.Observe(d.Units()) }

// CountSubmission records one submission attempt; ok is false when no
// server was reachable.
func (c *Collector) CountSubmission(ok bool) {
	c.submitted++
	if !ok {
		c.submitFailures++
	}
}

// CountDelivered records successfully buffered messages.
func (c *Collector) CountDelivered(n int) { c.delivered += int64(n) }

// CountDuplicates records suppressed duplicate deposits.
func (c *Collector) CountDuplicates(n int) { c.duplicates += int64(n) }

// CountRetries records transfer retries.
func (c *Collector) CountRetries(n int) { c.retries += int64(n) }

// CountNotified records alert signals that reached an online user.
func (c *Collector) CountNotified(n int) { c.notified += int64(n) }

// CountRetrieval records one GetMail with the polls it issued.
func (c *Collector) CountRetrieval(polls int) {
	c.retrievals++
	c.polls += int64(polls)
}

// CountMigration records a user migration and how many renames it required.
func (c *Collector) CountMigration(renames int) {
	c.migrations++
	c.renames += int64(renames)
}

// CountReconfigMessages records traffic caused by reconfiguration.
func (c *Collector) CountReconfigMessages(n int64) { c.reconfigMessages += n }

// SetTraffic records the network totals (from netsim stats).
func (c *Collector) SetTraffic(costMilli, messages int64) {
	c.trafficCostMilli = costMilli
	c.messages = messages
}

// SetStorage records buffered bytes across servers.
func (c *Collector) SetStorage(bytes int64) { c.storageBytes = bytes }

// SetCapabilities records design-level flexibility facts.
func (c *Collector) SetCapabilities(attributeSend, roaming bool) {
	c.attributeSend = attributeSend
	c.roaming = roaming
}

// Report computes the §4 criteria from everything collected.
func (c *Collector) Report() Report {
	r := Report{System: c.system}
	if c.retrievals > 0 {
		r.Efficiency.MeanPollsPerCheck = float64(c.polls) / float64(c.retrievals)
	}
	if c.delivered > 0 {
		r.Efficiency.NotifyRate = float64(c.notified) / float64(c.delivered)
		r.Reliability.DuplicateRate = float64(c.duplicates) / float64(c.delivered)
		r.Reliability.RetriesPerMsg = float64(c.retries) / float64(c.delivered)
	}
	if c.submitted > 0 {
		r.Reliability.Availability = 1 - float64(c.submitFailures)/float64(c.submitted)
		r.Reliability.DeliveredRate = float64(c.delivered) / float64(c.submitted)
	}
	if c.migrations > 0 {
		r.Flexibility.RenamesPerMigration = float64(c.renames) / float64(c.migrations)
	}
	r.Flexibility.ReconfigMessages = c.reconfigMessages
	r.Flexibility.SupportsAttributeSend = c.attributeSend
	r.Flexibility.RoamingSupported = c.roaming
	r.Cost = Cost{
		TotalTrafficCost: float64(c.trafficCostMilli) / 1000,
		TotalMessages:    c.messages,
		StorageBytes:     c.storageBytes,
		MeanResponseTime: meanOrZero(&c.response),
	}
	return r
}

func meanOrZero(s *obs.Summary) float64 {
	if s.Count() == 0 {
		return 0
	}
	return s.Mean()
}

// Render formats the report as an aligned table for the experiment output.
func (r Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "§4 criteria — %s\n", r.System)
	t := obs.NewTable("", "criterion", "measure", "value")
	t.AddRow("efficiency", "polls per retrieval", r.Efficiency.MeanPollsPerCheck)
	t.AddRow("efficiency", "notify rate", r.Efficiency.NotifyRate)
	t.AddRow("reliability", "availability", r.Reliability.Availability)
	t.AddRow("reliability", "delivered rate", r.Reliability.DeliveredRate)
	t.AddRow("reliability", "retries per message", r.Reliability.RetriesPerMsg)
	t.AddRow("flexibility", "renames per migration", r.Flexibility.RenamesPerMigration)
	t.AddRow("flexibility", "reconfig messages", r.Flexibility.ReconfigMessages)
	t.AddRow("flexibility", "attribute send", r.Flexibility.SupportsAttributeSend)
	t.AddRow("flexibility", "roaming", r.Flexibility.RoamingSupported)
	t.AddRow("cost", "total traffic cost", r.Cost.TotalTrafficCost)
	t.AddRow("cost", "total messages", r.Cost.TotalMessages)
	t.AddRow("cost", "storage bytes", r.Cost.StorageBytes)
	t.AddRow("cost", "mean response time (u)", r.Cost.MeanResponseTime)
	b.WriteString(t.Render())
	return b.String()
}
