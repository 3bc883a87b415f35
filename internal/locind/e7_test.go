package locind

import (
	"testing"

	"github.com/largemail/largemail/internal/graph"
	"github.com/largemail/largemail/internal/names"
)

// pickUserWithHead returns a user primaried on ha whose sub-group authority
// head is the given server — letting the E7 oracle place deposits exactly
// where the test needs them.
func pickUserWithHead(t *testing.T, w *world, head graph.NodeID) names.Name {
	t.Helper()
	for _, tok := range []string{"carol", "dave", "erin", "frank", "gail", "hank", "iris", "jack"} {
		n := names.Name{Region: "R1", Host: "ha", User: tok}
		if w.sys.Resolve(n)[0] == head {
			return n
		}
	}
	t.Fatalf("no candidate user hashes to head server %d", head)
	return names.Name{}
}

// TestE7ExactOverheadCounts pins experiment E7 with exact message-count
// oracles (§3.2.2c): delivering to a user at their primary host costs at
// most one probe and ZERO location consultations; delivering to a roamed
// user costs exactly one probe, one consultation, and one roaming alert —
// the overhead exists if and only if the recipient moved.
func TestE7ExactOverheadCounts(t *testing.T) {
	w := newWorld(t, 4)
	get := func(k string) int64 { return w.sys.Stats().Get(k) }

	// --- Home case: recipient logged in at their primary host. ---
	// The sub-group head is s2 but the login was recorded at s1 (nearest to
	// ha), so the depositing server cannot use its fast path: it must probe
	// the primary host — and the probe finding the user ends the protocol.
	home := pickUserWithHead(t, w, s2)
	ah := mustAgent(t, w.sys, home)
	if err := ah.Login(); err != nil {
		t.Fatal(err)
	}
	w.sched.Run()
	c0, p0, h0, r0 := get("consultations"), get("notify_probe_primary"), get("notify_home"), get("notify_roaming")
	if err := w.bob.Send([]names.Name{home}, "home", "b"); err != nil {
		t.Fatal(err)
	}
	w.sched.Run()
	if d := get("consultations") - c0; d != 0 {
		t.Errorf("home delivery: %d consultations, want exactly 0", d)
	}
	if d := get("notify_probe_primary") - p0; d != 1 {
		t.Errorf("home delivery: %d probes, want exactly 1", d)
	}
	if d := get("notify_home") - h0; d != 1 {
		t.Errorf("home delivery: %d home notifications, want exactly 1", d)
	}
	if d := get("notify_roaming") - r0; d != 0 {
		t.Errorf("home delivery: %d roaming alerts, want exactly 0", d)
	}

	// --- Roaming case: recipient away from their primary host. ---
	// The head is s1; the roamer logs in at s2 (nearest to hc). The deposit
	// at s1 probes ha (miss), consults s2 (hit), and alerts — exactly one
	// consultation of overhead, never more, never on the home path.
	roam := pickUserWithHead(t, w, s1)
	ar := mustAgent(t, w.sys, roam)
	if err := ar.MoveTo(hc); err != nil {
		t.Fatal(err)
	}
	if err := ar.Login(); err != nil {
		t.Fatal(err)
	}
	w.sched.Run()
	c0, p0, h0, r0 = get("consultations"), get("notify_probe_primary"), get("notify_home"), get("notify_roaming")
	if err := w.bob.Send([]names.Name{roam}, "roam", "b"); err != nil {
		t.Fatal(err)
	}
	w.sched.Run()
	if d := get("consultations") - c0; d != 1 {
		t.Errorf("roaming delivery: %d consultations, want exactly 1", d)
	}
	if d := get("notify_probe_primary") - p0; d != 1 {
		t.Errorf("roaming delivery: %d probes, want exactly 1", d)
	}
	if d := get("notify_home") - h0; d != 0 {
		t.Errorf("roaming delivery: %d home notifications, want exactly 0", d)
	}
	if d := get("notify_roaming") - r0; d != 1 {
		t.Errorf("roaming delivery: %d roaming alerts, want exactly 1", d)
	}
	// Exactly-once across the roam: one copy, wherever the user is.
	if got := ar.GetMail(); len(got) != 1 {
		t.Fatalf("roamed recipient GetMail = %d messages, want 1", len(got))
	}
}
