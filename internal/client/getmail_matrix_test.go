package client

import (
	"errors"
	"testing"

	"github.com/largemail/largemail/internal/graph"
	"github.com/largemail/largemail/internal/mailerr"
	"github.com/largemail/largemail/internal/names"
	"github.com/largemail/largemail/internal/netsim"
	"github.com/largemail/largemail/internal/server"
	"github.com/largemail/largemail/internal/sim"
)

// Triangle world for the failure matrix: one host, two servers, every pair
// directly linked — so either server can be crashed, restarted, or fully
// partitioned (both its links cut) while the other stays reachable.
const (
	mh1 graph.NodeID = 11
	ms1 graph.NodeID = 111
	ms2 graph.NodeID = 112
)

type matrixWorld struct {
	sched  *sim.Scheduler
	net    *netsim.Network
	reader *Agent // recipient, authority [ms1, ms2]
	sender *Agent // sender, authority [ms2, ms1] — submits at ms2
}

func newMatrixWorld(t *testing.T) *matrixWorld {
	t.Helper()
	g := graph.New()
	g.MustAddNode(graph.Node{ID: mh1, Label: "H1", Region: "R1", Kind: graph.KindHost})
	g.MustAddNode(graph.Node{ID: ms1, Label: "S1", Region: "R1", Kind: graph.KindServer})
	g.MustAddNode(graph.Node{ID: ms2, Label: "S2", Region: "R1", Kind: graph.KindServer})
	g.MustAddEdge(mh1, ms1, 1)
	g.MustAddEdge(mh1, ms2, 1)
	g.MustAddEdge(ms1, ms2, 1)

	sched := sim.New(7)
	net := netsim.New(sched, g)
	dir := server.NewDirectory("R1")
	regions := server.NewRegionMap()
	servers := make(map[graph.NodeID]*server.Server)
	for _, id := range []graph.NodeID{ms1, ms2} {
		srv, err := server.New(server.Config{
			ID: id, Region: "R1", Net: net, Dir: dir, Regions: regions,
		})
		if err != nil {
			t.Fatal(err)
		}
		servers[id] = srv
	}
	reader := names.MustParse("R1.h1.reader")
	sender := names.MustParse("R1.h1.sender")
	if err := dir.SetAuthority(reader, []graph.NodeID{ms1, ms2}); err != nil {
		t.Fatal(err)
	}
	if err := dir.SetAuthority(sender, []graph.NodeID{ms2, ms1}); err != nil {
		t.Fatal(err)
	}
	host, err := NewHost(net, mh1)
	if err != nil {
		t.Fatal(err)
	}
	lookup := func(id graph.NodeID) *server.Server { return servers[id] }
	ra, err := NewAgent(reader, host, lookup, []graph.NodeID{ms1, ms2})
	if err != nil {
		t.Fatal(err)
	}
	sa, err := NewAgent(sender, host, lookup, []graph.NodeID{ms2, ms1})
	if err != nil {
		t.Fatal(err)
	}
	return &matrixWorld{sched: sched, net: net, reader: ra, sender: sa}
}

// getMail advances the clock (so LastCheckingTime strictly increases per
// retrieval), runs one GetMail, and returns (new messages, polls issued).
func (w *matrixWorld) getMail(t *testing.T) (got, polls int) {
	t.Helper()
	w.sched.RunFor(sim.Unit)
	before := w.reader.Stats().Polls
	msgs := w.reader.GetMail()
	return len(msgs), w.reader.Stats().Polls - before
}

func (w *matrixWorld) send(t *testing.T, subject string) {
	t.Helper()
	if _, err := w.sender.Send([]names.Name{w.reader.User()}, subject, "body"); err != nil {
		t.Fatalf("send %s: %v", subject, err)
	}
	w.sched.Run()
}

// partition cuts both of a server's links; heal restores them. Restoring a
// link stamps LastStartTime on its endpoints (§3.1.2c counts disconnection
// as unavailability), which is what makes mail that failed over past the
// partition discoverable afterwards.
func (w *matrixWorld) partition(t *testing.T, s graph.NodeID) {
	t.Helper()
	if err := w.net.FailLink(mh1, s); err != nil {
		t.Fatal(err)
	}
	if err := w.net.FailLink(ms1, ms2); err != nil {
		t.Fatal(err)
	}
}

func (w *matrixWorld) healPartition(t *testing.T, s graph.NodeID) {
	t.Helper()
	if err := w.net.RestoreLink(mh1, s, 1); err != nil {
		t.Fatal(err)
	}
	if err := w.net.RestoreLink(ms1, ms2, 1); err != nil {
		t.Fatal(err)
	}
}

// TestGetMailFailureMatrix drives §3.1.2c's retrieval procedure through a
// failure matrix — crash, crash+restart, full partition, against the primary
// and the backup authority server — checking at three checkpoints (synced
// steady state, during the fault, after healing) that no committed message
// is ever lost and that the poll count per retrieval is exactly what the
// LastCheckingTime-vs-LastStartTime comparison predicts:
//
//   - steady state costs exactly 1 poll per retrieval;
//   - a fault on the PRIMARY costs extra polls only after its recovery
//     stamps a fresh LastStartTime (the during-fault retrieval still polls
//     once: the backup);
//   - a fault on the BACKUP is invisible to the walk (it stops at the
//     primary, which provably holds all mail);
//   - mail that failed over past a PARTITIONED primary is undiscovered
//     while the partition holds (the in-region walk legitimately stops at
//     the primary) and is recovered by the first post-heal retrieval,
//     because link restoration stamps LastStartTime like a recovery.
type matrixRow struct {
	name string
	// fault is applied after checkpoint A; afterSend between the mid-fault
	// send and checkpoint B; heal after checkpoint B.
	fault, afterSend, heal func(t *testing.T, w *matrixWorld)

	pollsDuring int  // checkpoint B: polls for the during-fault retrieval
	msg1During  bool // checkpoint B: is the mid-fault message visible yet?
	pollsAfter  int  // checkpoint C: polls for the first post-heal retrieval
}

func TestGetMailFailureMatrix(t *testing.T) {
	rows := []matrixRow{
		{
			name:        "no fault",
			fault:       func(t *testing.T, w *matrixWorld) {},
			heal:        func(t *testing.T, w *matrixWorld) {},
			pollsDuring: 1, msg1During: true, pollsAfter: 1,
		},
		{
			name:  "crash primary",
			fault: func(t *testing.T, w *matrixWorld) { w.net.Crash(ms1) },
			heal:  func(t *testing.T, w *matrixWorld) { w.net.Recover(ms1) },
			// During: the walk probes ms1 (down, no poll), polls ms2, which
			// received the failed-over deposit. After: ms1's recovery stamp
			// forces the walk past it, re-polling ms2 — 2 polls once.
			pollsDuring: 1, msg1During: true, pollsAfter: 2,
		},
		{
			name:  "crash backup",
			fault: func(t *testing.T, w *matrixWorld) { w.net.Crash(ms2) },
			heal:  func(t *testing.T, w *matrixWorld) { w.net.Recover(ms2) },
			// The walk stops at the live primary both times: a backup fault
			// never costs a poll, and no mail can be stranded behind it.
			pollsDuring: 1, msg1During: true, pollsAfter: 1,
		},
		{
			name:  "restart primary before checkpoint",
			fault: func(t *testing.T, w *matrixWorld) { w.net.Crash(ms1) },
			afterSend: func(t *testing.T, w *matrixWorld) {
				w.sched.RunFor(sim.Unit)
				w.net.Recover(ms1)
			},
			// Recovery happens before the during-fault retrieval ever runs:
			// checkpoint B itself pays the 2-poll walk (ms1's LastStartTime
			// is now newer than LastCheckingTime), and checkpoint C is
			// already steady again.
			pollsDuring: 2, msg1During: true, pollsAfter: 1,
		},
		{
			name:  "partition primary",
			fault: func(t *testing.T, w *matrixWorld) { w.partition(t, ms1) },
			heal:  func(t *testing.T, w *matrixWorld) { w.healPartition(t, ms1) },
			// The deposit fails over to ms2 (no route to ms1), but the walk
			// still stops at ms1 — the simulator's polls are in-process, so
			// a partitioned-from-the-network server answers and provably has
			// been up since the last check. The failed-over message stays
			// buffered and undiscovered until healing stamps LastStartTime.
			pollsDuring: 1, msg1During: false, pollsAfter: 2,
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			w := newMatrixWorld(t)

			// Checkpoint A — first retrieval: LastCheckingTime(0) is never
			// newer than a LastStartTime, so the walk polls the whole list.
			got, polls := w.getMail(t)
			if got != 0 || polls != 2 {
				t.Fatalf("checkpoint A: got %d msgs in %d polls, want 0 in 2", got, polls)
			}
			lctA := w.reader.LastCheckingTime()
			if ls, _ := w.net.LastStart(ms1); lctA <= ls {
				t.Fatalf("checkpoint A: LastCheckingTime %d not past LastStart(ms1) %d", lctA, ls)
			}

			if row.fault != nil {
				row.fault(t, w)
			}
			w.send(t, "msg1")
			if row.afterSend != nil {
				row.afterSend(t, w)
			}

			// Checkpoint B — during the fault.
			got, polls = w.getMail(t)
			if polls != row.pollsDuring {
				t.Errorf("checkpoint B: %d polls, want %d", polls, row.pollsDuring)
			}
			if visible := got == 1; visible != row.msg1During {
				t.Errorf("checkpoint B: msg1 visible = %v, want %v (got %d msgs)",
					visible, row.msg1During, got)
			}
			lctB := w.reader.LastCheckingTime()
			if lctB <= lctA {
				t.Fatalf("checkpoint B: LastCheckingTime %d not monotone past %d", lctB, lctA)
			}

			if row.heal != nil {
				row.heal(t, w)
			}
			w.send(t, "msg2")

			// Checkpoint C — first retrieval after healing. Whatever the
			// fault, both committed messages must now have arrived, exactly
			// once each.
			got, polls = w.getMail(t)
			if polls != row.pollsAfter {
				t.Errorf("checkpoint C: %d polls, want %d", polls, row.pollsAfter)
			}
			want := 2
			if row.msg1During {
				want = 1
			}
			if got != want {
				t.Errorf("checkpoint C: got %d msgs, want %d", got, want)
			}
			if lctC := w.reader.LastCheckingTime(); lctC <= lctB {
				t.Fatalf("checkpoint C: LastCheckingTime %d not monotone past %d", lctC, lctB)
			}

			// Steady state re-established: one more failure-free retrieval
			// costs exactly 1 poll and surfaces nothing new.
			got, polls = w.getMail(t)
			if got != 0 || polls != 1 {
				t.Errorf("steady state: got %d msgs in %d polls, want 0 in 1", got, polls)
			}

			st := w.reader.Stats()
			if st.Received != 2 || st.Duplicates != 0 {
				t.Errorf("exactly-once broken: received %d (want 2), duplicates %d (want 0)",
					st.Received, st.Duplicates)
			}
			// Retrieval order may differ per row (a recovered message can
			// arrive after a newer one); the set must not.
			subjects := make(map[string]int)
			for _, m := range w.reader.Inbox() {
				subjects[m.Subject]++
			}
			if subjects["msg1"] != 1 || subjects["msg2"] != 1 || len(subjects) != 2 {
				t.Errorf("inbox subjects = %v, want exactly {msg1, msg2}", subjects)
			}
		})
	}
}

// TestAgentErrorTaxonomy asserts failures on TYPES from the shared mailerr
// taxonomy, not substrings: total unavailability matches ErrServerDown
// through the package sentinel.
func TestAgentErrorTaxonomy(t *testing.T) {
	w := newMatrixWorld(t)
	w.net.Crash(ms1)
	w.net.Crash(ms2)

	if _, err := w.sender.Send([]names.Name{w.reader.User()}, "s", "b"); !errors.Is(err, ErrNoServerAvailable) {
		t.Errorf("Send with all servers down: %v does not match ErrNoServerAvailable", err)
	} else if !errors.Is(err, mailerr.ErrServerDown) {
		t.Errorf("Send with all servers down: %v does not match mailerr.ErrServerDown", err)
	}
}
