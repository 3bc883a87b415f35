package server

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/largemail/largemail/internal/graph"
	"github.com/largemail/largemail/internal/names"
	"github.com/largemail/largemail/internal/sim"
	"github.com/largemail/largemail/internal/sketch"
)

// TestTermIndexStaysExact: a server whose store has the term index on keeps
// it exact through every way the server writes a mailbox — local and relayed
// deposits, CheckMail, DrainMailbox and Evacuate. After each step of a seeded
// schedule, every server's SearchTerms (one and two terms) and Sketch bits
// equal what a fresh EnableTermIndex rebuild of the same buffered mail gives.
func TestTermIndexStaysExact(t *testing.T) {
	words := []string{"budget", "forecast", "offsite", "seminar", "tacos", "zanzibar"}
	users := []names.Name{alice, carol, bob}
	for _, tc := range []struct {
		name   string
		mutate []func(*Config)
	}{
		{"unbatched", nil},
		{"batched", []func(*Config){batched(4, 2*sim.Unit)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newWorld(t, tc.mutate...)
			ids := []graph.NodeID{s1, s2, s3}
			for _, id := range ids {
				w.servers[id].Store().EnableTermIndex()
			}
			rng := rand.New(rand.NewSource(27))
			pick := func() string { return words[rng.Intn(len(words))] }
			for step := 0; step < 400; step++ {
				srv := w.servers[ids[rng.Intn(len(ids))]]
				u := users[rng.Intn(len(users))]
				switch rng.Intn(7) {
				case 0, 1, 2, 3:
					req := SubmitRequest{From: carol, To: []names.Name{u}, Subject: pick(), Body: pick() + " " + pick()}
					if err := w.net.Send(h1, s1, req); err != nil {
						t.Fatal(err)
					}
				case 4:
					if _, err := srv.CheckMail(u); err != nil {
						t.Fatal(err)
					}
				case 5:
					srv.DrainMailbox(u, nil)
				case 6: // alice's list loses S1 or gets it back; S1 hands her mail on
					list := []graph.NodeID{s2}
					if rng.Intn(2) == 0 {
						list = []graph.NodeID{s1, s2}
					}
					if err := w.dirR1.SetAuthority(alice, list); err != nil {
						t.Fatal(err)
					}
					w.servers[s1].Evacuate()
				}
				w.sched.Run()
				for _, id := range ids {
					requireIndexRebuilds(t, step, w.servers[id], words)
				}
			}
		})
	}
}

// requireIndexRebuilds compares the server's live term index with a rebuild
// from the mail it buffers.
func requireIndexRebuilds(t *testing.T, step int, srv *Server, words []string) {
	t.Helper()
	st := srv.Store()
	search := func() map[string][]names.Name {
		out := make(map[string][]names.Name)
		set := func(q string, terms ...string) { // a set: compared in one order
			out[q] = st.SearchTerms(terms)
			slices.SortFunc(out[q], names.Compare)
		}
		for _, a := range words {
			set(a, a)
			for _, b := range words {
				set(a+"+"+b, a, b)
			}
		}
		return out
	}
	live, liveSketch := search(), sketchBits(srv)
	st.EnableTermIndex()
	rebuilt := search()
	for q, got := range live {
		if !reflect.DeepEqual(got, rebuilt[q]) {
			t.Fatalf("step %d, s%d: SearchTerms(%s) = %v, rebuilt index %v", step, srv.ID(), q, got, rebuilt[q])
		}
	}
	if rebuilt := sketchBits(srv); !reflect.DeepEqual(liveSketch, rebuilt) {
		t.Fatalf("step %d, s%d: sketch differs from the rebuilt index's", step, srv.ID())
	}
}

func sketchBits(srv *Server) *sketch.Filter {
	f, _ := srv.Store().Sketch()
	return f
}
