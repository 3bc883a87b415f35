package wire

import (
	"context"
	"errors"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/largemail/largemail/internal/mailerr"
)

// TestClientDeadlineAgainstHungServer dials a listener that accepts and
// then never responds; the request must fail within the configured timeout
// instead of blocking forever.
func TestClientDeadlineAgainstHungServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			// Swallow everything, answer nothing.
			buf := make([]byte, 4096)
			for {
				if _, err := conn.Read(buf); err != nil {
					return
				}
			}
		}
	}()

	c, err := dialOptions(ln.Addr().String(), options{timeout: 150 * time.Millisecond, retries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	_, err = c.Do(Request{Op: "status"})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("request against hung server succeeded")
	}
	if !os.IsTimeout(err) {
		t.Errorf("error = %v, want timeout", err)
	}
	if elapsed > 2*time.Second {
		t.Errorf("request took %v, want ~150ms", elapsed)
	}
}

// TestOversizedLineGetsErrorResponse: a request whose frame would pass
// MaxLine is refused by the client before anything is written — the server
// would drop the connection on such a frame — with an error that matches
// mailerr.ErrOversized, and the connection stays usable.
func TestOversizedLineGetsErrorResponse(t *testing.T) {
	s := newServer(t)
	c := newClient(t, s)
	if err := c.Register("R1.h1.a"); err != nil {
		t.Fatal(err)
	}
	big := Request{Op: "submit", From: "R1.h1.a", To: []string{"R1.h1.a"}, Body: strings.Repeat("x", MaxLine+1)}
	in := s.bytesIn.Value()
	if _, err := c.Do(big); !errors.Is(err, ErrFrameTooLarge) || !errors.Is(err, mailerr.ErrOversized) {
		t.Errorf("oversized frame, Do: err = %v, want ErrFrameTooLarge matching mailerr.ErrOversized", err)
	}
	if got := s.bytesIn.Value(); got != in {
		t.Errorf("the refused request put %d bytes on the wire", got-in)
	}

	// The cap is on what travels: 300 KiB of control bytes is 300 KiB in a
	// frame, legal through Do and through Pipeline.Do alike.
	ctl := Request{Op: "submit", From: "R1.h1.a", To: []string{"R1.h1.a"}, Body: strings.Repeat("\x01", 300<<10)}
	if _, err := c.Do(ctl); err != nil {
		t.Fatalf("control-byte body, Do: %v", err)
	}
	p, err := c.Pipeline(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Do(ctl).Response(); err != nil {
		t.Fatalf("control-byte body, Pipeline.Do: %v", err)
	}
	if _, err := p.Do(big).Response(); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversized frame, Pipeline.Do: err = %v, want ErrFrameTooLarge", err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	msgs, err := c.GetMail("R1.h1.a")
	if err != nil || len(msgs) != 2 || msgs[0].Body != ctl.Body || msgs[1].Body != ctl.Body {
		t.Fatalf("getmail after the two framed submits: %d messages, err %v", len(msgs), err)
	}
}

// TestClientReconnectsAfterBrokenConnection kills the client's TCP
// connection out from under it; the next request must transparently
// reconnect and succeed.
func TestClientReconnectsAfterBrokenConnection(t *testing.T) {
	s := newServer(t)
	c := newClient(t, s)
	if err := c.Register("R1.h1.alice"); err != nil {
		t.Fatal(err)
	}
	// Sever the current connection behind the client's back.
	_ = c.conn.Close()
	// First call may fail (write into closed socket is not retried once
	// read-side state is ambiguous — here the write itself fails, which IS
	// retried on a fresh connection).
	if _, err := c.Status(); err != nil {
		t.Fatalf("Status after severed connection: %v", err)
	}
	if _, err := c.GetMail("R1.h1.alice"); err != nil {
		t.Fatalf("GetMail after reconnect: %v", err)
	}
}

// TestStatusCarriesClusterCounters checks the fault/retry/spool counters
// ride along on status responses.
func TestStatusCarriesClusterCounters(t *testing.T) {
	s := newServer(t)
	c := newClient(t, s)
	if err := c.Register("R1.h1.alice", "s1", "s2"); err != nil {
		t.Fatal(err)
	}
	// Force a failover so at least one counter moves.
	if err := c.SetAvailability("s1", false); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit("R1.h1.alice", []string{"R1.h1.alice"}, "fo", "b"); err != nil {
		t.Fatal(err)
	}
	snap, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Counters == nil {
		t.Fatal("status response has no counters")
	}
	if _, ok := snap.Gauges["spool_depth"]; !ok {
		t.Error("gauges missing spool_depth")
	}
	if snap.Counters["deposit_failovers"] == 0 {
		t.Errorf("deposit_failovers = 0 after failover submit; counters = %v", snap.Counters)
	}
}

// TestDialRetriesWhileServerComesUp points the client at a port with no
// listener yet: dial failures are retried, so a server that comes up within
// the retry budget is reached.
func TestDialRetriesWhileServerComesUp(t *testing.T) {
	s := newServer(t)
	c, err := dialOptions(s.Addr(), options{timeout: time.Second, retries: 3, retryBackoff: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Break the connection, then issue a request: connect-phase failures
	// must burn retries, not return immediately.
	_ = c.conn.Close()
	if _, err := c.Status(); err != nil {
		t.Fatalf("Status with retries: %v", err)
	}
}
