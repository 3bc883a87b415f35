package loadgen

import "testing"

// Bounded agents (aim 3): a driver reads the IDs of what a retrieval
// returned and keeps the agent for the rest of the run, so the agent must
// not keep the bodies, nor the alerts that announced them. Both simulated
// drivers, a long sweep, every message still retrieved exactly once.
func TestLongSweepRetainsNoBodies(t *testing.T) {
	const users, rounds = 24, 60
	pop := Population{Users: users, Regions: 2, ServersPerRegion: 2}

	sd := newSimDriver(t, SimConfig{Seed: 3, Pop: pop})
	rd := newRoamDriver(t, RoamConfig{Seed: 3, Pop: pop})
	for u := 0; u < users; u++ { // SimDriver agents log in only when asked
		a, err := sd.ensure(u)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Login(); err != nil {
			t.Fatal(err)
		}
	}
	sd.Settle()

	for name, d := range map[string]Driver{"sim": sd, "roam": rd} {
		submitted, got := 0, map[string]int{}
		for r := 0; r < rounds; r++ {
			for u := 0; u < users; u++ {
				if _, err := d.Submit(u, []int{(u + 1 + r) % users}, "subject", "a body the agent must not keep"); err != nil {
					t.Fatalf("%s: submit: %v", name, err)
				}
				submitted++
			}
			d.Step(4)
			for u := 0; u < users; u++ {
				for _, id := range d.Retrieve(u).IDs {
					got[id]++
				}
			}
		}
		d.Settle()
		for u := 0; u < users; u++ {
			for _, id := range d.Retrieve(u).IDs {
				got[id]++
			}
		}
		if len(got) != submitted {
			t.Errorf("%s: retrieved %d distinct messages, submitted %d", name, len(got), submitted)
		}
		for id, n := range got {
			if n != 1 {
				t.Errorf("%s: %s retrieved %d times", name, id, n)
			}
		}
	}

	alerts := sd.Snapshot().Counters["srv_notifies"] + rd.Snapshot().Counters["notify_home"]
	if alerts == 0 {
		t.Fatal("no alerts were ever delivered: the notification half of the test is vacuous")
	}
	for u := 0; u < users; u++ {
		if a := sd.agents[u]; len(a.Inbox()) != 0 || len(a.Notifications()) != 0 {
			t.Errorf("sim agent u%d retains %d messages, %d alerts", u, len(a.Inbox()), len(a.Notifications()))
		}
		if a := rd.agents[u]; len(a.Inbox()) != 0 || len(a.Notifications()) != 0 {
			t.Errorf("roam agent u%d retains %d messages, %d alerts", u, len(a.Inbox()), len(a.Notifications()))
		}
	}
}
