package faults

import (
	"reflect"
	"strings"
	"testing"
)

func chaosSpec() Spec {
	return Spec{
		Seed:    7,
		Ticks:   100,
		Servers: []string{"s1", "s2", "s3"},
		Links: [][2]string{
			{"s1", "s2"}, {"s2", "s3"}, {"s1", "s3"},
		},
		DropTargets: []string{"h1", "h2"},
		Crashes:     5,
		LinkFaults:  4,
		Latencies:   3,
		Drops:       2,
	}
}

func TestCompileDeterministic(t *testing.T) {
	a, err := Compile(chaosSpec())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compile(chaosSpec())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical specs compiled to different schedules")
	}
	want := 2 * (5 + 4 + 3 + 2)
	if len(a.Events) != want {
		t.Fatalf("events = %d, want %d", len(a.Events), want)
	}
}

func TestCompileWindowsPairedAndClosed(t *testing.T) {
	sched, err := Compile(chaosSpec())
	if err != nil {
		t.Fatal(err)
	}
	if h := sched.Horizon(); h > 100 {
		t.Fatalf("horizon %d beyond spec ticks", h)
	}
	last := 0
	open := make(map[string]int) // per-target open-window depth
	for _, e := range sched.Events {
		if e.Tick < last {
			t.Fatalf("events not sorted at %v", e)
		}
		last = e.Tick
		switch e.Kind {
		case Crash:
			open["srv:"+e.Target]++
		case Recover:
			if open["srv:"+e.Target] == 0 {
				t.Fatalf("recover before crash: %v", e)
			}
			open["srv:"+e.Target]--
		case LinkFail:
			open["link:"+e.Target+e.Peer]++
		case LinkRestore:
			if open["link:"+e.Target+e.Peer] == 0 {
				t.Fatalf("restore before fail: %v", e)
			}
			open["link:"+e.Target+e.Peer]--
		case Latency:
			if e.DelayTicks > 0 {
				open["lat:"+e.Target]++
			} else {
				open["lat:"+e.Target]--
			}
		case Drop:
			if e.Prob > 0 {
				open["drop:"+e.Target]++
			} else {
				open["drop:"+e.Target]--
			}
		}
	}
	for k, n := range open {
		if n != 0 {
			t.Errorf("window %s left open (depth %d) at end of schedule", k, n)
		}
	}
}

func TestCompileOversizedOutageClamped(t *testing.T) {
	// A MaxOutage at or beyond the horizon used to feed rng.Intn a
	// non-positive span and panic; it must clamp so windows still fit.
	sp := chaosSpec()
	sp.MinOutage = 50
	sp.MaxOutage = sp.Ticks + 10
	sched, err := Compile(sp)
	if err != nil {
		t.Fatal(err)
	}
	if h := sched.Horizon(); h > sp.Ticks {
		t.Fatalf("horizon %d beyond spec ticks %d", h, sp.Ticks)
	}

	// Even MinOutage beyond the horizon must compile (both bounds clamp).
	sp = chaosSpec()
	sp.MinOutage = sp.Ticks * 2
	sp.MaxOutage = sp.Ticks * 3
	if _, err := Compile(sp); err != nil {
		t.Fatalf("oversized MinOutage: %v", err)
	}
}

func TestCompileProtectedTargetsExcluded(t *testing.T) {
	sp := chaosSpec()
	sp.Protected = []string{"s1"}
	sched, err := Compile(sp)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range sched.Events {
		switch e.Kind {
		case Crash, Recover, Latency:
			if e.Target == "s1" {
				t.Fatalf("protected server faulted: %v", e)
			}
		case LinkFail, LinkRestore:
			if e.Target == "s1" || e.Peer == "s1" {
				t.Fatalf("protected server's link faulted: %v", e)
			}
		}
	}
}

func TestCompileValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Spec)
	}{
		{"ticks", func(sp *Spec) { sp.Ticks = 1 }},
		{"no servers", func(sp *Spec) { sp.Servers = nil }},
		{"all protected", func(sp *Spec) { sp.Protected = append([]string(nil), sp.Servers...) }},
		{"no links", func(sp *Spec) { sp.Links = nil }},
		{"no drop targets", func(sp *Spec) { sp.DropTargets = nil }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sp := chaosSpec()
			tc.mut(&sp)
			if _, err := Compile(sp); err == nil {
				t.Error("invalid spec accepted")
			}
		})
	}
}

func TestEventString(t *testing.T) {
	e := Event{Tick: 4, Kind: LinkFail, Target: "s1", Peer: "s2"}
	if got := e.String(); !strings.Contains(got, "link-fail") || !strings.Contains(got, "s1-s2") {
		t.Errorf("String() = %q", got)
	}
	if got := (Event{Tick: 1, Kind: Drop, Target: "h1", Prob: 0.25}).String(); !strings.Contains(got, "p=0.25") {
		t.Errorf("String() = %q", got)
	}
}
