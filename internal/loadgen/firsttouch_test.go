package loadgen

import (
	"testing"
)

// TestEngineBodyBytes: the body fire slices out of the engine's alphabet is,
// byte for byte, the one it used to build — body[i] = 'a' + (i+tick)%26 — at
// every tick offset and at both ends of the size range, so every seeded
// output that depends on body bytes (stored sizes, term indexes) is unchanged.
func TestEngineBodyBytes(t *testing.T) {
	drv := newSimDriver(t, SimConfig{Seed: 1, Pop: Population{Users: 64, Regions: 1, ServersPerRegion: 2}})
	e := New(drv, Config{Seed: 1})
	for tick := 0; tick < 60; tick++ {
		for _, n := range []int{minBody, minBody + 1, 777, maxBody} {
			want := make([]byte, n)
			for i := range want {
				want[i] = 'a' + byte((i+tick)%26)
			}
			off := tick % 26
			if got := e.alphabet[off : off+n]; got != string(want) {
				t.Fatalf("tick %d, %d bytes: body differs from the built one", tick, n)
			}
		}
	}
}

// TestSimSubmitAllocs: a message between two users who already exist costs
// its payload and nothing for the users — one round of Submit, delivery and
// TakeMail is the driver's string ID, the server's per-copy records (the
// message's recipient list, the boxed Transfer and TransferAck, the
// mailbox's message slot) and Retrieve's ID list. The parent also paid a
// fresh []names.Name with a re-formatted name per recipient, a copy of the
// sender's authority list, a pending-transfer record, and two copies of the
// retrieved batch (12 measured).
func TestSimSubmitAllocs(t *testing.T) {
	drv := newSimDriver(t, SimConfig{Seed: 1, Pop: Population{
		Users: 4000, Regions: 1, HostsPerRegion: 8, ServersPerRegion: 4, AuthorityLen: 2,
	}})
	defer drv.Close()
	// A sender and 64 recipients whose primary server is not the sender's, so
	// every copy crosses the network as a deposit transfer.
	const from = 0
	fa, err := drv.ensure(from)
	if err != nil {
		t.Fatal(err)
	}
	var rcpts []int
	for u := 1; u < drv.pop.Users && len(rcpts) < 64; u++ {
		if drv.lists[hostID(drv.pop.HostOf(u))][0] != fa.Authority()[0] {
			rcpts = append(rcpts, u)
		}
	}
	if len(rcpts) < 64 {
		t.Fatalf("only %d users homed off the sender's primary", len(rcpts))
	}
	i, to := 0, make([]int, 1)
	round := func() {
		to[0] = rcpts[i%len(rcpts)]
		i++
		if _, err := drv.Submit(from, to, "s", "body"); err != nil {
			t.Fatal(err)
		}
		drv.Settle()
		if res := drv.Retrieve(to[0]); len(res.IDs) != 1 {
			t.Fatalf("user %d retrieved %d messages, want 1", to[0], len(res.IDs))
		}
	}
	for range rcpts { // materialise every user and take their first, whole-list walk
		round()
	}
	if n := testing.AllocsPerRun(256, round); n > 7 {
		t.Errorf("Submit + deliver + Retrieve between existing users: %v allocs, want ≤ 7", n)
	}
	if got := drv.Snapshot().Counters["srv_transfers_out"]; got < int64(i) {
		t.Errorf("%d transfers for %d copies: the copies did not cross the network", got, i)
	}
}

// TestFirstTouchAllocs: materialising a user under the static policy — the
// path every default run takes — costs what the hard-wired Policy == "" path
// cost before it was retired: the name's user token, the agent and the
// directory entry (AllocsPerRun truncates the maps' amortised growth away).
// Measured over the same 20 000 first touches at the commit that still had
// the fork: 3 down the "" path, 5 through the seam (a copy of the slot list,
// a node list per user; the per-slot set entry grew a map). The seam now adds
// nothing per user: the static policy hands out the host's cached list and
// the books are a count.
func TestFirstTouchAllocs(t *testing.T) {
	for _, policy := range []string{"", "static"} {
		drv := newSimDriver(t, SimConfig{Seed: 1, Policy: policy, Pop: Population{
			Users: 100000, Regions: 4, ServersPerRegion: 4,
		}})
		u := 0
		n := testing.AllocsPerRun(20000, func() {
			if _, err := drv.ensure(u); err != nil {
				t.Fatal(err)
			}
			u++
		})
		if n > 3 {
			t.Errorf("policy %q: first touch of a user: %v allocs, want ≤ 3", policy, n)
		}
	}
}
