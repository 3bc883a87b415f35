package livenet

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/largemail/largemail/internal/names"
)

var (
	alice = names.MustParse("R1.h1.alice")
	bob   = names.MustParse("R1.h2.bob")
)

// newCluster builds a three-server cluster with alice on [s1 s2 s3] and bob
// on [s2 s3 s1]; the cluster is closed at test end.
func newCluster(t *testing.T) *Cluster {
	t.Helper()
	c := NewCluster()
	t.Cleanup(c.Close)
	for _, n := range []string{"s1", "s2", "s3"} {
		if _, err := c.AddServer(n); err != nil {
			t.Fatal(err)
		}
	}
	c.Directory().SetAuthority(alice, []string{"s1", "s2", "s3"})
	c.Directory().SetAuthority(bob, []string{"s2", "s3", "s1"})
	return c
}

func TestSubmitAndGetMail(t *testing.T) {
	c := newCluster(t)
	a, err := c.NewAgent(alice)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.NewAgent(bob)
	if err != nil {
		t.Fatal(err)
	}
	id, err := b.Send([]names.Name{alice}, "hello", "live")
	if err != nil {
		t.Fatal(err)
	}
	got := a.GetMail()
	if len(got) != 1 || got[0].ID != id || got[0].Subject != "hello" {
		t.Fatalf("GetMail = %v", got)
	}
	if len(a.Inbox()) != 1 {
		t.Error("inbox not updated")
	}
	// Primary server s1 took the deposit.
	s1, _ := c.Server("s1")
	if s1.Deposits() != 1 {
		t.Errorf("s1 deposits = %d", s1.Deposits())
	}
}

func TestGetMailStopsAtStablePrimary(t *testing.T) {
	c := newCluster(t)
	a, _ := c.NewAgent(alice)
	b, _ := c.NewAgent(bob)
	a.GetMail() // cold start: LastCheckingTime now set after server starts
	coldPolls := a.Polls()
	for i := 0; i < 5; i++ {
		if _, err := b.Send([]names.Name{alice}, "s", "b"); err != nil {
			t.Fatal(err)
		}
		a.GetMail()
	}
	if got := a.Polls() - coldPolls; got != 5 {
		t.Errorf("steady-state polls = %d over 5 retrievals, want 5", got)
	}
}

func TestFailoverDeposit(t *testing.T) {
	c := newCluster(t)
	s1, _ := c.Server("s1")
	s1.Crash()
	b, _ := c.NewAgent(bob)
	if _, err := b.Send([]names.Name{alice}, "fo", "b"); err != nil {
		t.Fatal(err)
	}
	s2, _ := c.Server("s2")
	if n, _ := s2.MailboxLen(alice); n != 1 {
		t.Errorf("secondary mailbox = %d, want 1", n)
	}
	a, _ := c.NewAgent(alice)
	got := a.GetMail()
	if len(got) != 1 {
		t.Fatalf("GetMail with primary down = %v", got)
	}
}

func TestStrandedMailRecoveredAfterRestart(t *testing.T) {
	c := newCluster(t)
	a, _ := c.NewAgent(alice)
	b, _ := c.NewAgent(bob)
	a.GetMail()
	// Mail lands on s1, which then crashes.
	if _, err := b.Send([]names.Name{alice}, "stranded", "b"); err != nil {
		t.Fatal(err)
	}
	s1, _ := c.Server("s1")
	s1.Crash()
	// New mail goes to s2; alice checks while s1 is down.
	if _, err := b.Send([]names.Name{alice}, "fresh", "b"); err != nil {
		t.Fatal(err)
	}
	got := a.GetMail()
	if len(got) != 1 || got[0].Subject != "fresh" {
		t.Fatalf("got %v while primary down", got)
	}
	// s1 recovers; its fresh LastStartTime forces a deeper walk and the
	// stranded message surfaces.
	time.Sleep(time.Millisecond) // ensure LastStart > lastChecking measurably
	s1.Recover()
	got = a.GetMail()
	if len(got) != 1 || got[0].Subject != "stranded" {
		t.Fatalf("after recovery got %v", got)
	}
}

func TestAllServersDown(t *testing.T) {
	c := newCluster(t)
	for _, n := range []string{"s1", "s2", "s3"} {
		s, _ := c.Server(n)
		s.Crash()
	}
	b, _ := c.NewAgent(bob)
	if _, err := b.Send([]names.Name{alice}, "s", "b"); !errors.Is(err, ErrAllDown) {
		t.Errorf("all-down Send err = %v", err)
	}
}

func TestNewAgentRequiresAuthority(t *testing.T) {
	c := newCluster(t)
	ghost := names.MustParse("R1.h9.ghost")
	if _, err := c.NewAgent(ghost); !errors.Is(err, ErrNoAuthority) {
		t.Errorf("err = %v, want ErrNoAuthority", err)
	}
}

func TestDuplicateServerRejected(t *testing.T) {
	c := newCluster(t)
	if _, err := c.AddServer("s1"); err == nil {
		t.Error("duplicate server accepted")
	}
}

func TestClosedCluster(t *testing.T) {
	c := NewCluster()
	if _, err := c.AddServer("s"); err != nil {
		t.Fatal(err)
	}
	c.Directory().SetAuthority(alice, []string{"s"})
	c.Close()
	c.Close() // idempotent
	if _, err := c.AddServer("x"); !errors.Is(err, ErrClosed) {
		t.Errorf("AddServer after close err = %v", err)
	}
	if _, err := c.Submit(bob, []names.Name{alice}, "s", "b"); !errors.Is(err, ErrClosed) {
		t.Errorf("Submit after close err = %v", err)
	}
}

// Concurrency: many senders plus crash/recovery churn; every message is
// retrieved exactly once. Run with -race.
func TestConcurrentSendersNoLoss(t *testing.T) {
	c := newCluster(t)
	const senders = 8
	const perSender = 25
	var wg sync.WaitGroup
	errCh := make(chan error, senders)
	for i := 0; i < senders; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			from := names.Name{Region: "R1", Host: "hx", User: fmt.Sprintf("sender%d", i)}
			for j := 0; j < perSender; j++ {
				if _, err := c.Submit(from, []names.Name{alice}, "cc", "b"); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	// Churn the secondary and tertiary while traffic flows; the primary
	// stays up so Submit always succeeds.
	stop := make(chan struct{})
	var churnWG sync.WaitGroup
	churnWG.Add(1)
	go func() {
		defer churnWG.Done()
		s2, _ := c.Server("s2")
		s3, _ := c.Server("s3")
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				s2.Crash()
				s3.Recover()
			} else {
				s2.Recover()
				s3.Crash()
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()
	wg.Wait()
	close(stop)
	churnWG.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	s2, _ := c.Server("s2")
	s3, _ := c.Server("s3")
	s2.Recover()
	s3.Recover()

	a, _ := c.NewAgent(alice)
	a.GetMail()
	a.GetMail() // clear PreviouslyUnavailable stragglers
	if got := len(a.Inbox()); got != senders*perSender {
		t.Errorf("received %d of %d messages", got, senders*perSender)
	}
}

func TestMultiRecipientFanout(t *testing.T) {
	c := newCluster(t)
	carol := names.MustParse("R1.h3.carol")
	c.Directory().SetAuthority(carol, []string{"s3"})
	if _, err := c.Submit(bob, []names.Name{alice, carol}, "fan", "b"); err != nil {
		t.Fatal(err)
	}
	a, _ := c.NewAgent(alice)
	ca, _ := c.NewAgent(carol)
	if len(a.GetMail()) != 1 || len(ca.GetMail()) != 1 {
		t.Error("fanout copy missing")
	}
}

// TestDepositStampedBeforeRetrieval: a retriever spinning on the server a
// submitter deposits to sits in the server's queue right behind the deposit,
// so it drains and stamps the copy retrieved before the submitter's goroutine
// runs again. The deposit stamp is taken on the server goroutine, ahead of
// that CheckMail; taken by the submitter after its call returned, it came
// second and the trace read retrieve-before-deposit — the trace_gap the live
// chaos soak showed once the workload engine retrieved beside the spool.
func TestDepositStampedBeforeRetrieval(t *testing.T) {
	c := newCluster(t)
	c.Tracer().KeepAll()
	a, err := c.NewAgent(alice)
	if err != nil {
		t.Fatal(err)
	}
	const n = 3000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for got := 0; got < n; {
			got += len(a.TakeMail())
		}
	}()
	ids := make([]string, n)
	for i := range ids {
		id, err := c.Submit(bob, []names.Name{alice}, "s", "b")
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id.String()
	}
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("the retriever never saw every message")
	}
	if gaps := c.Tracer().Incomplete(ids); len(gaps) != 0 {
		t.Fatalf("%d of %d traces out of order or incomplete, first %s", len(gaps), n, gaps[0])
	}
}
