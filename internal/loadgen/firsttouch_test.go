package loadgen

import (
	"runtime"
	"testing"

	"github.com/largemail/largemail/internal/mail"
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
// Retrieve is the driver's string ID and shares of arrays: the chunk the
// message's recipient list is carved from, the growth of the
// duplicate-suppression sets and the tracer's tables. Retrieve hands the IDs
// back as values in a list it reuses, and the mailbox's slot comes back when
// it releases the batch, which every round does. It was 3 while Retrieve
// formatted each ID as text, 6 while the server copied each recipient list,
// Retrieve released nothing and made a new ID list, and 12 before that, when
// it also paid a fresh []names.Name with a re-formatted name per recipient, a
// copy of the sender's authority list, a pending-transfer record, and two
// copies of the retrieved batch.
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
	released, scribble := 0, mail.AfterRelease
	defer func() { mail.AfterRelease = scribble }()
	mail.AfterRelease = func(slot *mail.Stored) { released++; scribble(slot) }
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
	if n := testing.AllocsPerRun(256, round); n > 1 {
		t.Errorf("Submit + deliver + Retrieve between existing users: %v allocs, want ≤ 1", n)
	}
	if got := drv.Snapshot().Counters["srv_transfers_out"]; got < int64(i) {
		t.Errorf("%d transfers for %d copies: the copies did not cross the network", got, i)
	}
	if released != i {
		t.Errorf("Retrieve released %d of %d one-message batches", released, i)
	}
}

// TestRoamSubmitAllocs: the same round on the location-independent driver
// costs what SimDriver's does — the driver's string ID and shares of the
// duplicate-suppression sets and the tracer's tables. Submit takes each
// recipient's name from its agent, and the agent keeps its notification
// list's array across DropNotifications. It was 5 while Retrieve formatted
// each ID and DropNotifications handed the list back as nil, and 7 while
// Submit and Retrieve each made a new list per call.
func TestRoamSubmitAllocs(t *testing.T) {
	drv := newRoamDriver(t, RoamConfig{Seed: 1, Pop: Population{
		Users: 4000, Regions: 1, HostsPerRegion: 8, ServersPerRegion: 4, AuthorityLen: 2,
	}})
	const from = 0
	i, to := 0, make([]int, 1)
	round := func() {
		to[0] = 1 + i%64
		i++
		if _, err := drv.Submit(from, to, "s", "body"); err != nil {
			t.Fatal(err)
		}
		drv.Settle()
		if res := drv.Retrieve(to[0]); len(res.IDs) != 1 {
			t.Fatalf("user %d retrieved %d messages, want 1", to[0], len(res.IDs))
		}
	}
	for range 64 { // materialise every user and take their first retrieval
		round()
	}
	if n := testing.AllocsPerRun(256, round); n > 1 {
		t.Errorf("Submit + deliver + Retrieve between existing users: %v allocs, want ≤ 1", n)
	}
}

// TestFirstTouchAllocs: materialising a user under the static policy — the
// path every default run takes — costs no allocation of its own: the user
// token is written into the driver's shared name chunk, the directory keeps
// the host's list it is given, and the agent comes from the fabric's chunk
// (AllocsPerRun truncates the chunks and the maps' amortised growth away).
// It was 1 while each user token was a string of its own, 3 while the
// directory copied the list and every agent was an allocation of its own; 5
// through the policy seam when that made a copy of the slot list and a node
// list per user. The static policy hands out the host's cached list and the
// books are a count.
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
		if n > 0 {
			t.Errorf("policy %q: first touch of a user: %v allocs, want 0", policy, n)
		}
	}
}

// TestEngineAllocsPerCopy: a closed loop shaped like the benchmark's
// sim_deliver workload, at 20 000 users — delivery while it runs, every
// retrieval in the final drain, the trace audit at the end — allocates per
// copy what a copy keeps and little else: Submit's ID string, its share of
// the tracer's and the mailboxes' arrays and of the ledger's map, and the
// first touch of its users. The bound is the measured figure plus 15 %; it
// was 3.90 while the engine and the auditors kept IDs as text and every user
// token was a string of its own, and 8.58 while the slots, the recipient
// lists, each audited trace and the engine's and driver's slices were
// allocations of their own.
func TestEngineAllocsPerCopy(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops a quarter of what it is given under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	drv := newSimDriver(t, SimConfig{Seed: 1, Pop: Population{Users: 20000, Regions: 2, ServersPerRegion: 4}})
	defer drv.Close()
	eng := New(drv, Config{
		Seed: 1, Messages: 6000, Sessions: 512, Ticks: 60, RetrieveEvery: 1 << 20,
		Workload: Workload{maxRecipients: 1}, // a message's own costs are a copy's
	})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep := eng.Run()
	runtime.ReadMemStats(&after)
	requireClean(t, rep)
	perCopy := float64(after.Mallocs-before.Mallocs) / float64(rep.Copies)
	t.Logf("%d copies, %.3f allocs per copy", rep.Copies, perCopy)
	const measured = 1.97
	if perCopy > measured*1.15 {
		t.Errorf("%.3f allocs per copy, want ≤ %.3f (%.3f measured, plus 15 %%)", perCopy, measured*1.15, measured)
	}
}
