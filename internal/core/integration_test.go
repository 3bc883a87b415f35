package core

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/largemail/largemail/internal/graph"
	"github.com/largemail/largemail/internal/names"
	"github.com/largemail/largemail/internal/sim"
)

// TestSyntaxSystemRandomizedNoLoss drives a full two-region world through a
// randomized workload with server churn and mid-run migrations, then checks
// the global §5 guarantee: every accepted submission is retrieved exactly
// once, system-wide.
func TestSyntaxSystemRandomizedNoLoss(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			g, users := twoRegionTopology()
			s, err := NewSyntax(SyntaxConfig{
				Topology: g, UsersPerHost: users,
				AuthorityLen: 3, Seed: seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed))
			population := s.Users()
			servers := s.Servers()

			sent := 0
			for round := 0; round < 120; round++ {
				// Churn R1's servers; keep the single R2 server up so
				// cross-region forwards always have a live target region.
				anyUp := false
				for _, id := range servers {
					n, _ := g.Node(id)
					if n.Region != "R1" {
						continue
					}
					if rng.Float64() < 0.25 {
						s.Net.Crash(id)
					} else {
						s.Net.Recover(id)
						anyUp = true
					}
				}
				if !anyUp {
					for _, id := range servers {
						if n, _ := g.Node(id); n.Region == "R1" {
							s.Net.Recover(id)
							break
						}
					}
				}
				from := population[rng.Intn(len(population))]
				to := population[rng.Intn(len(population))]
				if from == to {
					continue
				}
				if err := s.Send(from, []names.Name{to}, "r", "b"); err == nil {
					sent++
				}
				s.RunFor(30 * sim.Unit)
				// A random user checks mail.
				u := population[rng.Intn(len(population))]
				if a, err := s.Agent(u); err == nil {
					a.GetMail()
				}
			}

			// One mid-run migration: a random R1 user moves to R2.
			var mover names.Name
			for _, u := range population {
				if u.Region == "R1" {
					mover = u
					break
				}
			}
			// The old agent leaves the population at migration; bank what it
			// received so the global count stays exact.
			movedReceived := 0
			if a, err := s.Agent(mover); err == nil {
				a.GetMail() // drain before the move so nothing is stranded mid-handover
				movedReceived = a.Stats().Received
			}
			newName, err := s.MigrateUser(mover, graph.HostBase+7)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Send(population[1], []names.Name{mover}, "redirected", "b"); err == nil {
				sent++
			}
			s.Run()

			// Settle: recover everything, drain all agents twice.
			for _, id := range servers {
				s.Net.Recover(id)
			}
			s.RunFor(500 * sim.Unit)
			s.Run()
			received := movedReceived
			for _, u := range s.Users() {
				a, err := s.Agent(u)
				if err != nil {
					t.Fatal(err)
				}
				a.GetMail()
				a.GetMail()
				received += a.Stats().Received
			}
			_ = newName
			if received != sent {
				t.Errorf("received %d of %d accepted messages", received, sent)
			}
		})
	}
}
