package evalsys

import (
	"math"
	"strings"
	"testing"

	"github.com/largemail/largemail/internal/sim"
)

func fullCollector() *Collector {
	c := NewCollector("test")
	c.ObserveResponse(sim.Units(10))
	for i := 0; i < 10; i++ {
		c.CountSubmission(i != 9) // one failure
	}
	c.CountDelivered(9)
	c.CountDuplicates(1)
	c.CountRetries(2)
	c.CountNotified(4)
	c.CountRetrieval(1)
	c.CountRetrieval(2)
	c.CountMigration(1)
	c.CountMigration(0)
	c.CountReconfigMessages(7)
	c.SetTraffic(12500, 50)
	c.SetStorage(2048)
	c.SetCapabilities(true, false)
	return c
}

func TestReportValues(t *testing.T) {
	r := fullCollector().Report()
	if r.System != "test" {
		t.Errorf("System = %q", r.System)
	}
	if r.Cost.MeanResponseTime != 10 {
		t.Errorf("MeanResponseTime = %v", r.Cost.MeanResponseTime)
	}
	if r.Efficiency.MeanPollsPerCheck != 1.5 {
		t.Errorf("MeanPollsPerCheck = %v", r.Efficiency.MeanPollsPerCheck)
	}
	if math.Abs(r.Reliability.Availability-0.9) > 1e-12 {
		t.Errorf("Availability = %v", r.Reliability.Availability)
	}
	if math.Abs(r.Reliability.DeliveredRate-0.9) > 1e-12 {
		t.Errorf("DeliveredRate = %v", r.Reliability.DeliveredRate)
	}
	if r.Flexibility.RenamesPerMigration != 0.5 {
		t.Errorf("RenamesPerMigration = %v", r.Flexibility.RenamesPerMigration)
	}
	if r.Cost.TotalTrafficCost != 12.5 || r.Cost.TotalMessages != 50 {
		t.Errorf("Cost = %+v", r.Cost)
	}
	if r.Cost.StorageBytes != 2048 {
		t.Errorf("StorageBytes = %d", r.Cost.StorageBytes)
	}
	if !r.Flexibility.SupportsAttributeSend || r.Flexibility.RoamingSupported {
		t.Errorf("capabilities = %+v", r.Flexibility)
	}
}

func TestEmptyCollectorNoNaNs(t *testing.T) {
	r := NewCollector("empty").Report()
	for name, v := range map[string]float64{
		"polls":     r.Efficiency.MeanPollsPerCheck,
		"avail":     r.Reliability.Availability,
		"delivered": r.Reliability.DeliveredRate,
		"renames":   r.Flexibility.RenamesPerMigration,
		"response":  r.Cost.MeanResponseTime,
	} {
		if math.IsNaN(v) {
			t.Errorf("%s is NaN on empty collector", name)
		}
	}
	if s := r.Score(); math.IsNaN(s) || s < 0 || s > 1 {
		t.Errorf("empty Score = %v", s)
	}
}

func TestScoreBounds(t *testing.T) {
	if s := fullCollector().Report().Score(); s < 0 || s > 1 || math.IsNaN(s) {
		t.Errorf("Score() = %v out of [0,1]", s)
	}
	if (Report{}).Score() < 0 {
		t.Error("zero report score negative")
	}
}

func TestScorePrefersReliableSystem(t *testing.T) {
	good := NewCollector("good")
	good.CountSubmission(true)
	good.CountDelivered(1)
	bad := NewCollector("bad")
	bad.CountSubmission(true) // submitted but never delivered
	if good.Report().Score() <= bad.Report().Score() {
		t.Error("reliable system did not out-score lossy one")
	}
}

func TestRender(t *testing.T) {
	out := fullCollector().Report().Render()
	for _, want := range []string{"efficiency", "reliability", "flexibility", "cost", "polls per retrieval"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q", want)
		}
	}
}
