package queueing

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWait(t *testing.T) {
	cases := []struct {
		rho  float64
		want float64
	}{
		{0, 0},
		{-1, 0},
		{0.5, 1},
		{0.75, 3},
		{0.9, 9},
		{0.99, SaturationPenalty},
		{1.0, SaturationPenalty},
		{1.5, SaturationPenalty},
		{math.NaN(), 0},
	}
	for _, c := range cases {
		got := Wait(c.rho)
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Wait(%v) = %v, want %v", c.rho, got, c.want)
		}
	}
}

func TestWaitMonotone(t *testing.T) {
	f := func(a, b float64) bool {
		a = math.Abs(math.Mod(a, 1))
		b = math.Abs(math.Mod(b, 1))
		if a > b {
			a, b = b, a
		}
		return Wait(a) <= Wait(b)
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(4))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestUtilization(t *testing.T) {
	cases := []struct {
		load, max int
		want      float64
	}{
		{50, 100, 0.5},
		{0, 100, 0},
		{-5, 100, 0},
		{150, 100, 1.5},
		{0, 0, 0},
	}
	for _, c := range cases {
		if got := Utilization(c.load, c.max); got != c.want {
			t.Errorf("Utilization(%d,%d) = %v, want %v", c.load, c.max, got, c.want)
		}
	}
	if !math.IsInf(Utilization(1, 0), 1) {
		t.Error("Utilization(1,0) should be +Inf")
	}
}

// Property: the paper's Wait estimate coincides with the exact M/M/1 mean
// number in system ρ/(1-ρ) below the cutoff.
func TestWaitMatchesMM1Form(t *testing.T) {
	for rho := 0.01; rho < UtilizationCutoff; rho += 0.07 {
		if math.Abs(Wait(rho)-rho/(1-rho)) > 1e-9 {
			t.Errorf("Wait(%v) diverges from ρ/(1-ρ)", rho)
		}
	}
}
