package wire

import (
	"context"
	"reflect"
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
	res, err := c.Do(Request{Op: "query", Query: "content=budget"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 1 || res.Matches[0] != "R1.h1.alice" {
		t.Fatalf("matches = %v, want [R1.h1.alice]", res.Matches)
	}
	st := res.QueryStats
	if st == nil {
		t.Fatal("query answered without stats")
	}
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
	res, err = c.Do(Request{Op: "query", Query: "content=zanzibar"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 0 {
		t.Errorf("matches for absent term = %v, want none", res.Matches)
	}
	if res.QueryStats.Visited != res.QueryStats.SketchFP {
		t.Errorf("absent-term visits beyond false positives: %+v", res.QueryStats)
	}
}

// TestQueryConjunction pins the multi-term semantics: a match must hold
// every term, served by one SearchTerms pass per visited server.
func TestQueryConjunction(t *testing.T) {
	s := newQueryServer(t, ServerConfig{})
	c := newClient(t, s)
	seedQueryMail(t, c)
	res, err := c.Do(Request{Op: "query", Query: "content=budget, content=forecast"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 1 || res.Matches[0] != "R1.h1.alice" {
		t.Fatalf("matches = %v, want [R1.h1.alice]", res.Matches)
	}
	if res, err = c.Do(Request{Op: "query", Query: "content=budget, content=tacos"}); err != nil {
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
	_, err := c.Do(Request{Op: "query", Query: "content=budget"})
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
		if _, err := c.Do(Request{Op: "query", Query: q}); err == nil {
			t.Errorf("query %q succeeded, want refusal", q)
		}
	}
	if _, err := c.Do(Request{Op: "query", Query: "content="}); err == nil {
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
	res, err := c.Do(Request{Op: "query", Query: "content=tacos"})
	if err != nil {
		t.Fatal(err)
	}
	if res.QueryStats.Unavailable != 1 {
		t.Errorf("stats = %+v, want exactly s2 unavailable", res.QueryStats)
	}
	if len(res.Matches) != 0 {
		t.Errorf("matches = %v, want none (holder's server is down)", res.Matches)
	}
	srv.Recover()
	if res, err = c.Do(Request{Op: "query", Query: "content=tacos"}); err != nil {
		t.Fatal(err)
	} else if len(res.Matches) != 1 || res.Matches[0] != "R1.h2.bob" {
		t.Errorf("matches after recovery = %v, want [R1.h2.bob]", res.Matches)
	}
}

// TestQueryBinaryFraming: the verb rides a JSON frame like the other cold
// ops, and answers the same through Client.Do and through a pipeline.
func TestQueryBinaryFraming(t *testing.T) {
	s := newQueryServer(t, ServerConfig{})
	c := newClient(t, s)
	seedQueryMail(t, c)
	res, err := c.Do(Request{Op: "query", Query: "content=budget"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 1 || res.Matches[0] != "R1.h1.alice" {
		t.Fatalf("matches through Do = %v", res.Matches)
	}
	p, err := c.Pipeline(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := p.Do(Request{Op: "query", Query: "content=budget"}).Response()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resp.Matches, res.Matches) || resp.QueryStats == nil || *resp.QueryStats != *res.QueryStats {
		t.Fatalf("through a pipeline: %v %+v, through Do: %v %+v", resp.Matches, resp.QueryStats, res.Matches, res.QueryStats)
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
	res, err := c.Do(Request{Op: "query", Query: "content=budget"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 0 {
		t.Errorf("drained mailbox still matches: %v", res.Matches)
	}
}
