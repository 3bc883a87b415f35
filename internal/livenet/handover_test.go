package livenet

import (
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"testing"
	"time"

	"github.com/largemail/largemail/internal/mail"
	"github.com/largemail/largemail/internal/names"
)

// retrievalLog is what one seeded schedule produced: each retrieval's batch,
// and the agent's bookkeeping after it.
type retrievalLog struct {
	batches [][]mail.Stored
	state   []string
}

// runHandOverSchedule drives one cluster through the schedule of seed:
// submits, the same ID planted on a second server, crash/recover cycles that
// send the walk down the list, and total outages that go through the spool.
// take picks how the agent hands out a retrieval — GetMail or TakeMail.
func runHandOverSchedule(t *testing.T, seed int64, take func(*Agent) []mail.Stored) retrievalLog {
	t.Helper()
	c := newCluster(t)
	if err := c.EnableSpool(SpoolConfig{BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	a, err := c.NewAgent(alice)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	servers := []string{"s1", "s2", "s3"}
	var sent []mail.Message
	var log retrievalLog
	retrieve := func() {
		log.batches = append(log.batches, take(a))
		log.state = append(log.state, fmt.Sprintf("polls=%d prev=%v", a.Polls(), a.PreviouslyUnavailable()))
	}
	for step := 0; step < 60; step++ {
		switch rng.Intn(6) {
		case 0, 1: // submit, unless it would be spooled: redelivery is timed by the spool, case 4 waits for it
			if c.firstAvailable(c.dir.Authority(alice)) == nil {
				continue
			}
			subject := fmt.Sprintf("s%d", step)
			id, err := c.Submit(bob, []names.Name{alice}, subject, "body "+subject)
			if err != nil {
				t.Fatal(err)
			}
			sent = append(sent, mail.Message{ID: id, From: bob, To: []names.Name{alice}, Subject: subject, Body: "body " + subject})
		case 2: // a second server holds a copy of a message already sent
			if len(sent) > 0 {
				s, _ := c.Server(servers[rng.Intn(len(servers))])
				_ = deposit(s, sent[rng.Intn(len(sent))], alice) // refused while the server is down
			}
		case 3: // crash or recover one server
			s, _ := c.Server(servers[rng.Intn(len(servers))])
			if s.Up() {
				s.Crash()
			} else {
				s.Recover()
				time.Sleep(time.Millisecond) // the recovery stamp is strictly before the next walk
			}
		case 4: // total outage: the submit is spooled and redelivered
			for _, n := range servers {
				s, _ := c.Server(n)
				s.Crash()
			}
			subject := fmt.Sprintf("spooled%d", step)
			if _, err := c.Submit(bob, []names.Name{alice}, subject, "b"); err != nil {
				t.Fatal(err)
			}
			for _, n := range servers {
				s, _ := c.Server(n)
				s.Recover()
			}
			for deadline := time.Now().Add(5 * time.Second); c.SpoolDepth() > 0; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("spool never drained")
				}
			}
			time.Sleep(time.Millisecond)
		case 5:
			retrieve()
		}
	}
	for _, n := range servers {
		s, _ := c.Server(n)
		s.Recover()
	}
	time.Sleep(time.Millisecond)
	retrieve()
	retrieve()
	return log
}

// TestHandOverMatchesCopyingGetMail: TakeMail hands out, retrieval by
// retrieval, exactly what GetMail would have copied — through duplicates on
// a second server, fail-over walks and spool redelivery — and a batch it has
// handed over is never written again, whatever the agent does next.
func TestHandOverMatchesCopyingGetMail(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		want := runHandOverSchedule(t, seed, (*Agent).GetMail)
		var snapshots [][]mail.Stored
		got := runHandOverSchedule(t, seed, func(a *Agent) []mail.Stored {
			batch := a.TakeMail()
			if len(a.Inbox()) != 0 {
				t.Fatalf("seed %d: agent kept %d messages after TakeMail", seed, len(a.Inbox()))
			}
			snapshots = append(snapshots, append([]mail.Stored(nil), batch...))
			return batch
		})
		if len(got.batches) != len(want.batches) {
			t.Fatalf("seed %d: %d retrievals, want %d", seed, len(got.batches), len(want.batches))
		}
		total := 0
		for i := range want.batches {
			if len(got.batches[i]) != len(want.batches[i]) || (len(want.batches[i]) > 0 && !reflect.DeepEqual(got.batches[i], want.batches[i])) {
				t.Fatalf("seed %d retrieval %d:\n got %v\nwant %v", seed, i, got.batches[i], want.batches[i])
			}
			if got.state[i] != want.state[i] {
				t.Fatalf("seed %d retrieval %d: agent state %q, want %q", seed, i, got.state[i], want.state[i])
			}
			if len(got.batches[i]) > 0 && !reflect.DeepEqual(got.batches[i], snapshots[i]) {
				t.Fatalf("seed %d retrieval %d: batch changed after it was handed over", seed, i)
			}
			total += len(got.batches[i])
		}
		if total == 0 {
			t.Fatalf("seed %d delivered nothing: the schedule tests nothing", seed)
		}
	}
}

// TestMain runs every test of this package on scribbled slots: a mailbox slot
// handed to mail.Release is overwritten with a plausible message, so a batch
// read after its release, or a deposit that trusted its slot to be clear,
// shows.
func TestMain(m *testing.M) {
	poison := mail.Stored{
		Message: mail.Message{ID: mail.MessageID{Node: 666, Seq: 666}, From: bob, To: []names.Name{bob}, Subject: "poison", Body: "poison"},
		Read:    true,
	}
	mail.AfterRelease = func(slot *mail.Stored) { *slot = poison }
	os.Exit(m.Run())
}

// TestHandOverReleasedSlotsPoisoned: the same schedules with every batch
// released by its last holder — copied out first, as a response encodes it —
// so that each deposit into an empty mailbox draws a slot an earlier
// retrieval gave back, scribbled on. Batches and agent state, retrieval by
// retrieval, are what the copying GetMail produces with no slot ever reused.
func TestHandOverReleasedSlotsPoisoned(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		want := runHandOverSchedule(t, seed, (*Agent).GetMail)
		got := runHandOverSchedule(t, seed, func(a *Agent) []mail.Stored {
			batch := a.TakeMail()
			out := append([]mail.Stored(nil), batch...)
			mail.Release(batch)
			return out
		})
		if !reflect.DeepEqual(got.state, want.state) {
			t.Fatalf("seed %d: agent state %q, want %q", seed, got.state, want.state)
		}
		for i := range want.batches {
			if len(got.batches[i]) != len(want.batches[i]) || (len(want.batches[i]) > 0 && !reflect.DeepEqual(got.batches[i], want.batches[i])) {
				t.Fatalf("seed %d retrieval %d:\n got %v\nwant %v", seed, i, got.batches[i], want.batches[i])
			}
		}
	}
}

// TestHandOverAdoptsDrainedSlice pins the mechanism: with an empty inbox and
// no duplicate, the batch TakeMail returns is the very array the mailbox gave
// up, capacity clipped; a duplicate forces the copy.
func TestHandOverAdoptsDrainedSlice(t *testing.T) {
	c := newCluster(t)
	a, err := c.NewAgent(alice)
	if err != nil {
		t.Fatal(err)
	}
	var msgs []mail.Message
	for i := 0; i < 3; i++ {
		id, err := c.Submit(bob, []names.Name{alice}, fmt.Sprint(i), "b")
		if err != nil {
			t.Fatal(err)
		}
		msgs = append(msgs, mail.Message{ID: id, From: bob, To: []names.Name{alice}, Subject: fmt.Sprint(i), Body: "b"})
	}
	batch := a.TakeMail()
	if len(batch) != 3 || cap(batch) != 3 {
		t.Fatalf("adopted batch: len %d cap %d, want 3 and 3 (clipped)", len(batch), cap(batch))
	}
	// The same three IDs again plus a fresh one: the duplicates are dropped,
	// so the result cannot be the drained slice.
	s1, _ := c.Server("s1")
	for _, m := range msgs {
		if err := deposit(s1, m, alice); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Submit(bob, []names.Name{alice}, "fresh", "b"); err != nil {
		t.Fatal(err)
	}
	if batch := a.TakeMail(); len(batch) != 1 || batch[0].Subject != "fresh" {
		t.Fatalf("after duplicates: %v", batch)
	}
}

// TestHandOverGiveBackLeadsNextBatch: the tail an owner could not pass on
// goes back to the agent, and the next TakeMail hands it over again ahead of
// what its own walk finds — in order, nothing twice, the part already passed
// on never written, and nothing kept once the last of it is out.
func TestHandOverGiveBackLeadsNextBatch(t *testing.T) {
	c := newCluster(t)
	a, err := c.NewAgent(alice)
	if err != nil {
		t.Fatal(err)
	}
	send := func(subject string) {
		t.Helper()
		if _, err := c.Submit(bob, []names.Name{alice}, subject, "b"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		send(fmt.Sprint(i))
	}
	batch := a.TakeMail()
	if len(batch) != 5 {
		t.Fatalf("first batch: %d messages, want 5", len(batch))
	}
	sent := batch[:2:2]
	snapshot := append([]mail.Stored(nil), sent...)
	a.GiveBack(batch[2:])
	send("5") // arrives while the tail waits
	var subjects []string
	for _, m := range a.TakeMail() {
		subjects = append(subjects, m.Subject)
	}
	if got := fmt.Sprint(subjects); got != "[2 3 4 5]" {
		t.Errorf("batch after GiveBack = %s, want [2 3 4 5]", got)
	}
	if !reflect.DeepEqual(sent, snapshot) {
		t.Error("the part already passed on was written by the walk that followed")
	}
	if rest := a.TakeMail(); len(rest) != 0 || len(a.inbox) != 0 {
		t.Errorf("%d messages handed over again, %d still held", len(rest), len(a.inbox))
	}
}

// TestWalkPrunesDepartedServers: a server that leaves the authority list
// while it is in PreviouslyUnavailableServers leaves that set at the next
// walk — the list is read once, and no later loop could ever clear the name.
func TestWalkPrunesDepartedServers(t *testing.T) {
	c := newCluster(t)
	a, err := c.NewAgent(alice)
	if err != nil {
		t.Fatal(err)
	}
	s1, _ := c.Server("s1")
	s1.Crash()
	a.GetMail()
	if got := a.PreviouslyUnavailable(); len(got) != 1 || got[0] != "s1" {
		t.Fatalf("PreviouslyUnavailable = %v, want [s1]", got)
	}
	c.Directory().SetAuthority(alice, []string{"s2", "s3"})
	a.GetMail()
	if len(a.prevUnavail) != 0 {
		t.Fatalf("prevUnavail still holds %v after s1 left the list", a.prevUnavail)
	}
}
