package evalsys

import (
	"math"
	"strings"
	"testing"
)

func fullReport() Report {
	return Report{
		System:      "test",
		Efficiency:  Efficiency{MeanPollsPerCheck: 1.5, NotifyRate: 0.25},
		Reliability: Reliability{DeliveredRate: 0.9, DuplicateRate: 0.125, RetriesPerMsg: 0.375},
		Flexibility: Flexibility{RenamesPerMigration: 0.5, SupportsAttributeSend: true},
		Cost:        Cost{TotalTrafficCost: 12.5, TotalMessages: 50, MeanResponseTime: 10},
	}
}

// TestReportValues: Render prints every measure's value in its row.
func TestReportValues(t *testing.T) {
	rows := map[string]string{}
	for _, line := range strings.Split(fullReport().Render(), "\n") {
		if f := strings.Fields(line); len(f) > 2 {
			rows[strings.Join(f[1:len(f)-1], " ")] = f[len(f)-1]
		}
	}
	for measure, want := range map[string]string{
		"polls per retrieval":    "1.5",
		"alerts per delivery":    "0.25",
		"delivered rate":         "0.9",
		"duplicates per message": "0.125",
		"retries per message":    "0.375",
		"renames per migration":  "0.5",
		"attribute send":         "true",
		"roaming":                "false",
		"total traffic cost":     "12.5",
		"total messages":         "50",
		"mean response time (u)": "10",
	} {
		if got := rows[measure]; got != want {
			t.Errorf("%s = %q, want %q", measure, got, want)
		}
	}
}

func TestScoreBounds(t *testing.T) {
	if s := fullReport().Score(); s < 0 || s > 1 || math.IsNaN(s) {
		t.Errorf("Score() = %v out of [0,1]", s)
	}
	if s := (Report{}).Score(); s < 0 || s > 1 || math.IsNaN(s) {
		t.Errorf("zero report Score() = %v out of [0,1]", s)
	}
}

func TestScorePrefersReliableSystem(t *testing.T) {
	good := Report{Reliability: Reliability{DeliveredRate: 1}}
	bad := Report{} // submitted but never delivered
	if good.Score() <= bad.Score() {
		t.Error("reliable system did not out-score lossy one")
	}
}

func TestRender(t *testing.T) {
	out := fullReport().Render()
	for _, want := range []string{"§4 criteria — test", "efficiency", "reliability", "flexibility", "cost", "polls per retrieval"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q", want)
		}
	}
}
