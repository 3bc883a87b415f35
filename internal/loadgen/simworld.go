package loadgen

import (
	"github.com/largemail/largemail/internal/faults"
	"github.com/largemail/largemail/internal/graph"
	"github.com/largemail/largemail/internal/netsim"
	"github.com/largemail/largemail/internal/obs"
	"github.com/largemail/largemail/internal/sim"
)

// simWorld is the simulated half of a netsim-backed driver (SimDriver,
// RoamDriver): the population's generated topology on a seeded scheduler, and
// one registry and lifecycle tracer on the simulation clock. The drivers
// embed it and add their architecture's servers, hosts and agents.
type simWorld struct {
	pop   Population
	tick  sim.Time // virtual length of one schedule tick
	sched *sim.Scheduler
	net   *netsim.Network
	topo  *graph.Graph
	nodes map[string]graph.NodeID // label → node, for fault injection
	reg   *obs.Registry
	trace *obs.Tracer
}

// newSimWorld builds the world for pop (defaults applied by the caller);
// tick ≤ 0 takes the default of 10 units, spares is Population.topology's.
func newSimWorld(seed int64, pop Population, tick sim.Time, spares int) simWorld {
	if tick <= 0 {
		tick = 10 * sim.Unit
	}
	w := simWorld{pop: pop, tick: tick, sched: sim.New(seed), reg: obs.NewRegistry()}
	sched := w.sched
	w.trace = obs.NewTracer(func() int64 { return int64(sched.Now()) }, w.reg)
	w.topo, w.nodes = pop.topology(spares)
	w.net = netsim.New(w.sched, w.topo)
	return w
}

// Scheduler exposes the simulation clock (tests advance and inspect it).
func (w *simWorld) Scheduler() *sim.Scheduler { return w.sched }

// Network exposes the simulated network (tests inject faults directly).
func (w *simWorld) Network() *netsim.Network { return w.net }

// Population implements Driver.
func (w *simWorld) Population() Population { return w.pop }

// Tracer implements Driver.
func (w *simWorld) Tracer() *obs.Tracer { return w.trace }

// Settle implements Driver: run the simulator to quiescence so retry timers
// and in-flight transfers complete.
func (w *simWorld) Settle() { w.sched.Run() }

// netSnapshot returns a registry's instruments plus a simulated network's
// counters (prefixed net_).
func netSnapshot(reg *obs.Registry, net *netsim.Network) obs.Snapshot {
	snap := reg.Snapshot()
	if snap.Counters == nil {
		snap.Counters = make(map[string]int64)
	}
	for k, v := range net.Stats().Counters() {
		snap.Counters["net_"+k] = v
	}
	return snap
}

// injector returns the fault injector over the world's network and labels.
func (w *simWorld) injector() *faults.SimTarget {
	return faults.NewSimTarget(w.net, w.nodes, w.tick)
}
