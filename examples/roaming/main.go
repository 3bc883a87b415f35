// Roaming: the limited location-independent design (§3.2). A user moves
// away from their primary host without changing names; servers track the
// move cooperatively and deliver alerts to the current location.
package main

import (
	"fmt"
	"log"

	"github.com/largemail/largemail/internal/core"
	"github.com/largemail/largemail/internal/graph"
	"github.com/largemail/largemail/internal/names"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ex := graph.Figure1()
	users := map[graph.NodeID][]string{
		ex.Hosts[0]: {"carol"}, // primary location: H1
		ex.Hosts[1]: {"dave"},
	}
	sys, err := core.NewLocation(core.LocationConfig{
		Topology: ex.G, Region: "R1", UsersPerHost: users, Seed: 3,
	})
	if err != nil {
		return err
	}
	carol := names.MustParse("R1.H1.carol")
	dave := names.MustParse("R1.H2.dave")
	cAgent, _ := sys.Agent(carol)
	dAgent, _ := sys.Agent(dave)

	// Carol's sub-group authority servers are hash-derived (§3.2.2b) and do
	// not change when she moves.
	fmt.Printf("carol's sub-group authority servers: %v\n", sys.Sys.Resolve(carol))

	// At the primary host: delivery needs no location consultation.
	if err := cAgent.Login(); err != nil {
		return err
	}
	sys.Run()
	if err := dAgent.Send([]names.Name{carol}, "at-home", "no tracking needed"); err != nil {
		return err
	}
	sys.Run()
	fmt.Printf("at primary: %d alert(s), consultations so far: %d\n",
		len(cAgent.Notifications()), sys.Sys.Stats().Get("consultations"))

	// Carol roams to H6 — same name, same servers (§3.2.4).
	if err := cAgent.MoveTo(ex.Hosts[5]); err != nil {
		return err
	}
	if err := cAgent.Login(); err != nil {
		return err
	}
	sys.Run()
	fmt.Printf("carol moved to node %v (primary is %v); name unchanged: %v\n",
		cAgent.CurrentHost(), ex.Hosts[0], cAgent.User())

	if err := dAgent.Send([]names.Name{carol}, "follow-me", "found via consultation"); err != nil {
		return err
	}
	sys.Run()
	fmt.Printf("roaming: %d alert(s) total, consultations now: %d (the roaming overhead of §3.2.2c)\n",
		len(cAgent.Notifications()), sys.Sys.Stats().Get("consultations"))

	for _, m := range cAgent.GetMail() {
		fmt.Printf("carol retrieved %q from %s\n", m.Subject, m.From)
	}
	return nil
}
