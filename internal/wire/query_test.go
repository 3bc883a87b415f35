package wire

import (
	"context"
	"strings"
	"testing"
)

// newQueryServer stands up a wire server whose cluster runs the term index,
// so the query verb is servable.
func newQueryServer(t *testing.T, cfg ServerConfig) *Server {
	t.Helper()
	cfg.Cluster.TermIndex = true
	s, err := NewServerWith("127.0.0.1:0", []string{"s1", "s2", "s3"}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// seedQueryMail pins alice to s1 and bob to s2, then buffers one message for
// each: alice's mentions the budget, bob's does not. s3 holds nothing.
func seedQueryMail(t *testing.T, c *Client) {
	t.Helper()
	if err := c.Register("R1.h1.alice", "s1"); err != nil {
		t.Fatal(err)
	}
	if err := c.Register("R1.h2.bob", "s2"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit("R1.h2.bob", []string{"R1.h1.alice"}, "q3", "the budget forecast is late"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit("R1.h1.alice", []string{"R1.h2.bob"}, "lunch", "tacos on friday"); err != nil {
		t.Fatal(err)
	}
}

func TestQueryRoundTrip(t *testing.T) {
	s := newQueryServer(t, ServerConfig{})
	c := newClient(t, s)
	seedQueryMail(t, c)
	res, err := c.Query("content=budget")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 1 || res.Matches[0] != "R1.h1.alice" {
		t.Fatalf("matches = %v, want [R1.h1.alice]", res.Matches)
	}
	st := res.Stats
	if st.Servers != 3 {
		t.Errorf("stats.Servers = %d, want 3", st.Servers)
	}
	if st.Visited+st.Pruned+st.Unavailable != st.Servers {
		t.Errorf("fan-out does not account for every server: %+v", st)
	}
	// Only s1's sketch can contain "budget"; s2 and s3 must be pruned
	// (modulo Bloom false positives, which would show up as visits — allow
	// at most the FP-counted ones).
	if st.Pruned+st.SketchFP < 2 {
		t.Errorf("expected s2 and s3 pruned or FP-visited: %+v", st)
	}
	// A query for a term nobody holds matches nothing and needs no visits
	// beyond false positives.
	res, err = c.Query("content=zanzibar")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 0 {
		t.Errorf("matches for absent term = %v, want none", res.Matches)
	}
	if res.Stats.Visited != res.Stats.SketchFP {
		t.Errorf("absent-term visits beyond false positives: %+v", res.Stats)
	}
}

// TestQueryConjunction pins the multi-term semantics: a match must hold
// every term, served by one SearchTerms pass per visited server.
func TestQueryConjunction(t *testing.T) {
	s := newQueryServer(t, ServerConfig{})
	c := newClient(t, s)
	seedQueryMail(t, c)
	res, err := c.Query("content=budget, content=forecast")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 1 || res.Matches[0] != "R1.h1.alice" {
		t.Fatalf("matches = %v, want [R1.h1.alice]", res.Matches)
	}
	if res, err = c.Query("content=budget, content=tacos"); err != nil {
		t.Fatal(err)
	} else if len(res.Matches) != 0 {
		t.Errorf("cross-mailbox conjunction matched %v, want none", res.Matches)
	}
}

// TestQueryRequiresTermIndex: a cluster without the index cannot serve the
// verb, and says so instead of returning a silently empty match set.
func TestQueryRequiresTermIndex(t *testing.T) {
	s := newServer(t) // default config: no term index
	c := newClient(t, s)
	_, err := c.Query("content=budget")
	if err == nil {
		t.Fatal("query without term index succeeded")
	}
	if !strings.Contains(err.Error(), "term index") {
		t.Errorf("error = %v, want a term-index refusal", err)
	}
}

// TestQueryRefusesProfilePredicates: the wire path has no profile store, so
// a query with any non-content conjunct must refuse rather than silently
// widen the match set by dropping the predicate.
func TestQueryRefusesProfilePredicates(t *testing.T) {
	s := newQueryServer(t, ServerConfig{})
	c := newClient(t, s)
	for _, q := range []string{"interest=g3", "content=budget, interest=g3", "content~ofsite"} {
		if _, err := c.Query(q); err == nil {
			t.Errorf("query %q succeeded, want refusal", q)
		}
	}
	if _, err := c.Query("content="); err == nil {
		t.Error("malformed query succeeded")
	}
}

// TestQueryCountsUnavailable: a crashed server is reported in the stats, not
// silently skipped — the client can tell a partial answer from a complete
// one, the same honesty rule the broadcast summaries follow.
func TestQueryCountsUnavailable(t *testing.T) {
	s := newQueryServer(t, ServerConfig{})
	c := newClient(t, s)
	seedQueryMail(t, c)
	srv, ok := s.Cluster().Server("s2")
	if !ok {
		t.Fatal("no s2")
	}
	srv.Crash()
	res, err := c.Query("content=tacos")
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Unavailable != 1 {
		t.Errorf("stats = %+v, want exactly s2 unavailable", res.Stats)
	}
	if len(res.Matches) != 0 {
		t.Errorf("matches = %v, want none (holder's server is down)", res.Matches)
	}
	srv.Recover()
	if res, err = c.Query("content=tacos"); err != nil {
		t.Fatal(err)
	} else if len(res.Matches) != 1 || res.Matches[0] != "R1.h2.bob" {
		t.Errorf("matches after recovery = %v, want [R1.h2.bob]", res.Matches)
	}
}

// TestQueryBinaryFraming: the verb rides the binary framing like any other
// cold op (JSON-in-frame), and answers the same on a connection that never
// left text.
func TestQueryBinaryFraming(t *testing.T) {
	s := newQueryServer(t, ServerConfig{})
	c := newClient(t, s)
	seedQueryMail(t, c)
	for _, binary := range []bool{false, true} {
		if binary {
			if err := c.Negotiate(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
		if c.BinaryFraming() != binary {
			t.Fatalf("binary framing = %v, want %v", c.BinaryFraming(), binary)
		}
		res, err := c.Query("content=budget")
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Matches) != 1 || res.Matches[0] != "R1.h1.alice" {
			t.Fatalf("matches (binary framing %v) = %v", binary, res.Matches)
		}
	}
}

// TestQueryAfterDrain: retrieval empties the mailbox, the index follows, and
// the same query stops matching — the index tracks *buffered* mail.
func TestQueryAfterDrain(t *testing.T) {
	s := newQueryServer(t, ServerConfig{})
	c := newClient(t, s)
	seedQueryMail(t, c)
	if _, err := c.GetMail("R1.h1.alice"); err != nil {
		t.Fatal(err)
	}
	res, err := c.Query("content=budget")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 0 {
		t.Errorf("drained mailbox still matches: %v", res.Matches)
	}
}
