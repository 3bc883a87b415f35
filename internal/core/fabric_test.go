package core

import (
	"fmt"
	"testing"

	"github.com/largemail/largemail/internal/graph"
	"github.com/largemail/largemail/internal/names"
	"github.com/largemail/largemail/internal/netsim"
	"github.com/largemail/largemail/internal/server"
	"github.com/largemail/largemail/internal/sim"
)

// BenchmarkRegister is a user's registration on the Figure 1 fabric: the
// directory entry and the agent, under the host's list. The fabric is
// replaced (untimed) every 1<<14 users so it stays small.
func BenchmarkRegister(b *testing.B) {
	ex := graph.Figure1()
	host := ex.Hosts[0]
	users := make([]names.Name, 1<<14)
	for i := range users {
		users[i] = names.Name{Region: "R1", Host: "H1", User: fmt.Sprintf("u%d", i)}
	}
	var f *Fabric
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%len(users) == 0 {
			b.StopTimer()
			var err error
			if f, err = NewFabric(ex.G, server.Config{Net: netsim.New(sim.New(1), ex.G)}, ex.Users, 0, 0); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		if _, err := f.Register(users[i%len(users)], host, f.Lists()[host]); err != nil {
			b.Fatal(err)
		}
	}
}
