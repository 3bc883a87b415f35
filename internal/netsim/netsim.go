// Package netsim simulates the message network the mail systems run on.
//
// It combines the discrete-event kernel (internal/sim) with a weighted
// topology (internal/graph) to provide the network model the paper assumes:
// messages between nodes "arrive after an unpredictable but finite delay,
// without error and in sequence" (§3.3.1-A) while both endpoints are up, and
// nodes fail by stopping (a server "may become unavailable because of
// failure or being disconnected from the network", §3.1.2c) and later
// recover, at which point their LastStartTime is updated — the timestamp the
// paper's GetMail algorithm compares against.
//
// Delay model: a message from A to B takes (shortest-path cost A→B) ×
// DelayPerCost microticks. Per-edge delays are constant, so messages on the
// same route are delivered in sending order, as the GHS MST algorithm
// requires.
package netsim

import (
	"errors"
	"fmt"

	"github.com/largemail/largemail/internal/graph"
	"github.com/largemail/largemail/internal/obs"
	"github.com/largemail/largemail/internal/sim"
)

// Errors reported by Network operations.
var (
	ErrUnknownNode   = errors.New("netsim: unknown node")
	ErrSenderDown    = errors.New("netsim: sending node is down")
	ErrNoRoute       = errors.New("netsim: no route to destination")
	ErrNotNeighbors  = errors.New("netsim: nodes are not adjacent")
	ErrNoHandler     = errors.New("netsim: node has no handler registered")
	ErrAlreadyExists = errors.New("netsim: handler already registered")
)

// Envelope is a message in flight, delivered to the destination's Handler.
// A Payload that is a *Box belongs to the network until the flight ends and
// to its free list afterwards: a handler copies out what it keeps and never
// holds the pointer, or anything inside the box, past Receive.
type Envelope struct {
	From, To graph.NodeID
	Payload  any
	SentAt   sim.Time
	Hops     int     // links traversed along the shortest path
	Cost     float64 // total edge-weight cost of the route
}

// Handler consumes messages delivered to a node.
type Handler interface {
	Receive(env Envelope)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(env Envelope)

// Receive calls f(env).
func (f HandlerFunc) Receive(env Envelope) { f(env) }

// FreeList recycles the payloads one sender puts in the air. A protocol struct
// handed to Send as `any` is boxed — one heap allocation per envelope, and the
// sender cannot know when the last reader is done with it (a retry's
// duplicate may land after the ack that settled the original). The network
// can: a Box taken from a FreeList comes back to that list, cleared, when its
// flight ends, whichever way it ends. The zero value is ready to use; a
// FreeList must not be copied once used, and like the Network it serves it is
// not safe for concurrent use.
type FreeList[T any] struct {
	free []*Box[T]
}

// Box is one recyclable payload: the value a handler reads, and the way home.
type Box[T any] struct {
	V    T
	home *FreeList[T]
}

// Get returns a cleared box from the list, allocating only when none has
// landed yet. The box is for exactly one Send or SendDirect, which takes it
// over whether or not it accepts the message.
func (l *FreeList[T]) Get() *Box[T] {
	if last := len(l.free) - 1; last >= 0 {
		b := l.free[last]
		l.free = l.free[:last]
		return b
	}
	return &Box[T]{home: l}
}

// Box is Get with the payload filled in.
func (l *FreeList[T]) Box(v T) *Box[T] {
	b := l.Get()
	b.V = v
	return b
}

// recyclable is what the network asks of a payload; only *Box answers.
type recyclable interface{ recycle() }

// recycle clears the box — a pooled box must not pin a message body, nor show
// one tenant's fields to the next — and puts it back on its list. A payload
// type that carries an array worth keeping (a batch's items) says how it is
// cleared with a Reset method; every other type is set to its zero value.
func (b *Box[T]) recycle() {
	if r, ok := any(&b.V).(interface{ Reset() }); ok {
		r.Reset()
	} else {
		var zero T
		b.V = zero
	}
	b.home.free = append(b.home.free, b)
}

// Recoverer is an optional extension of Handler: nodes implementing it are
// told when they recover from a crash (with the recovery time, which becomes
// their LastStartTime).
type Recoverer interface {
	Recovered(at sim.Time)
}

// Crasher is an optional extension of Handler: nodes implementing it are
// told when they crash, so they can discard volatile state.
type Crasher interface {
	Crashed(at sim.Time)
}

// Network is a simulated message network. Not safe for concurrent use; all
// activity runs on the scheduler's event loop.
type Network struct {
	sched *sim.Scheduler
	topo  *graph.Graph

	handlers  map[graph.NodeID]Handler
	down      map[graph.NodeID]bool
	lastStart map[graph.NodeID]sim.Time

	// Fault-injection hooks (internal/faults): per-node added delay and
	// per-node inbound drop probability.
	extraDelay map[graph.NodeID]sim.Time
	dropProb   map[graph.NodeID]float64

	// routes caches, per source, the hop count and cost of the shortest path
	// to every reachable node. A row is built once from that source's
	// Dijkstra result and the whole cache is dropped — never edited — when
	// the topology changes (FailLink/RestoreLink).
	routes map[graph.NodeID]map[graph.NodeID]route

	// free holds flights that have landed, for reuse by the next post. The
	// network is single-threaded, so a plain stack does.
	free []*flight

	// afterRecycle, when set via AfterRecycle, sees every box the network has
	// just handed back.
	afterRecycle func(payload any)

	// DelayPerCost converts one unit of edge-weight cost into virtual time.
	// Defaults to sim.Unit (one paper time unit per cost unit).
	DelayPerCost sim.Time

	stats   *obs.Registry
	latency *obs.Histogram // "lat_net_delivery": send→deliver, microticks
}

// New builds a network over a copy of the topology. Mutating the original
// graph afterwards does not affect the network; use FailLink/RestoreLink for
// dynamic changes.
func New(sched *sim.Scheduler, topo *graph.Graph) *Network {
	reg := obs.NewRegistry()
	return &Network{
		sched:        sched,
		topo:         topo.Clone(),
		handlers:     make(map[graph.NodeID]Handler),
		down:         make(map[graph.NodeID]bool),
		lastStart:    make(map[graph.NodeID]sim.Time),
		extraDelay:   make(map[graph.NodeID]sim.Time),
		dropProb:     make(map[graph.NodeID]float64),
		routes:       make(map[graph.NodeID]map[graph.NodeID]route),
		DelayPerCost: sim.Unit,
		stats:        reg,
		latency:      reg.Histogram("lat_net_delivery", nil),
	}
}

// Scheduler returns the underlying event scheduler.
func (n *Network) Scheduler() *sim.Scheduler { return n.sched }

// Topology returns the network's own topology (mutations via graph methods
// bypass route-cache invalidation; prefer FailLink/RestoreLink).
func (n *Network) Topology() *graph.Graph { return n.topo }

// Stats returns the traffic instruments: counters "delivered",
// "dropped_dest_down", "dropped_injected", "expired", "cost_milli" (total
// delivered route cost ×1000) and "hops", plus the "lat_net_delivery"
// histogram of send→deliver latency in microticks.
func (n *Network) Stats() *obs.Registry { return n.stats }

// Register installs the handler for a node. Nodes start up.
func (n *Network) Register(id graph.NodeID, h Handler) error {
	if _, ok := n.topo.Node(id); !ok {
		return fmt.Errorf("%w: %d", ErrUnknownNode, id)
	}
	if _, dup := n.handlers[id]; dup {
		return fmt.Errorf("%w: %d", ErrAlreadyExists, id)
	}
	n.handlers[id] = h
	n.lastStart[id] = n.sched.Now()
	return nil
}

// MustRegister is Register for static wiring; it panics on error.
func (n *Network) MustRegister(id graph.NodeID, h Handler) {
	if err := n.Register(id, h); err != nil {
		panic(err)
	}
}

// Deregister removes a node's handler and fault state, leaving the node in
// the topology. Messages already in flight to it are dropped on arrival
// (counted "dropped_no_handler"), and the node may later be re-registered —
// the lifecycle of a server deleted by reconfiguration (§3.1.3): its links
// may still carry transit traffic, but it no longer terminates any.
// Deregistering an unknown node is a no-op.
func (n *Network) Deregister(id graph.NodeID) {
	delete(n.handlers, id)
	delete(n.down, id)
	delete(n.lastStart, id)
	delete(n.extraDelay, id)
	delete(n.dropProb, id)
}

// IsUp reports whether the node is currently up.
func (n *Network) IsUp(id graph.NodeID) bool {
	_, registered := n.handlers[id]
	return registered && !n.down[id]
}

// LastStart reports when the node last started or recovered — the
// LastStartTime[server] variable of §3.1.2c. The second result is false for
// unregistered nodes.
func (n *Network) LastStart(id graph.NodeID) (sim.Time, bool) {
	t, ok := n.lastStart[id]
	return t, ok
}

// Crash takes a node down. In-flight messages to it will be dropped on
// arrival. Crashing a node that is already down is a no-op.
func (n *Network) Crash(id graph.NodeID) {
	if n.down[id] {
		return
	}
	if h, ok := n.handlers[id]; ok {
		n.down[id] = true
		if c, ok := h.(Crasher); ok {
			c.Crashed(n.sched.Now())
		}
	}
}

// Recover brings a crashed node back up and stamps its LastStartTime with
// the current instant. Recovering an up node is a no-op.
func (n *Network) Recover(id graph.NodeID) {
	if !n.down[id] {
		return
	}
	delete(n.down, id)
	n.lastStart[id] = n.sched.Now()
	if r, ok := n.handlers[id].(Recoverer); ok {
		r.Recovered(n.sched.Now())
	}
}

// FailLink removes a link from the live topology and invalidates routes.
func (n *Network) FailLink(a, b graph.NodeID) error {
	if err := n.topo.RemoveEdge(a, b); err != nil {
		return err
	}
	n.routes = make(map[graph.NodeID]map[graph.NodeID]route)
	return nil
}

// RestoreLink re-adds a link with the given weight and invalidates routes.
//
// Restoring a link also stamps a fresh LastStartTime on both (up, registered)
// endpoints and fires their Recoverer hook: §3.1.2c counts "being
// disconnected from the network" as unavailability, so reconnection is a
// recovery for the GetMail algorithm — without the stamp, an agent would stop
// its retrieval walk at a formerly partitioned server and miss mail that
// failed over past it while it was unreachable.
func (n *Network) RestoreLink(a, b graph.NodeID, w float64) error {
	if err := n.topo.AddEdge(a, b, w); err != nil {
		return err
	}
	n.routes = make(map[graph.NodeID]map[graph.NodeID]route)
	for _, id := range []graph.NodeID{a, b} {
		h, registered := n.handlers[id]
		if !registered || n.down[id] {
			continue // a crashed endpoint stamps when Recover runs
		}
		n.lastStart[id] = n.sched.Now()
		if r, ok := h.(Recoverer); ok {
			r.Recovered(n.sched.Now())
		}
	}
	return nil
}

// SetExtraDelay adds d to the delivery delay of every message sent from or
// to the node — an injected-latency fault. Zero clears the fault. Negative
// values are treated as zero.
func (n *Network) SetExtraDelay(id graph.NodeID, d sim.Time) {
	if d <= 0 {
		delete(n.extraDelay, id)
		return
	}
	n.extraDelay[id] = d
}

// SetDropProb makes messages destined to the node be dropped with
// probability p on arrival (counted as "dropped_injected") — an injected
// lossy-link fault. Drops are drawn from the scheduler's seeded random
// source, so runs stay deterministic. p is clamped to [0, 1]; zero clears
// the fault.
func (n *Network) SetDropProb(id graph.NodeID, p float64) {
	if p <= 0 {
		delete(n.dropProb, id)
		return
	}
	if p > 1 {
		p = 1
	}
	n.dropProb[id] = p
}

// route is one entry of a source's row: what Send stamps on an envelope.
type route struct {
	cost float64 // shortest-path cost, Paths.Dist
	hops int     // links on that path, len(Paths.PathTo)-1
}

// routesFrom returns src's row, running Dijkstra on first use.
func (n *Network) routesFrom(src graph.NodeID) (map[graph.NodeID]route, error) {
	if row, ok := n.routes[src]; ok {
		return row, nil
	}
	p, err := n.topo.ShortestPaths(src)
	if err != nil {
		return nil, err
	}
	// Hop counts in one pass over Prev: climb from each node to the nearest
	// ancestor already counted, then number the climbed nodes on the way back.
	row := make(map[graph.NodeID]route, len(p.Dist))
	row[src] = route{}
	var climbed []graph.NodeID
	for id := range p.Dist {
		at := id
		for {
			if _, done := row[at]; done {
				break
			}
			climbed = append(climbed, at)
			at = p.Prev[at]
		}
		hops := row[at].hops
		for i := len(climbed) - 1; i >= 0; i-- {
			hops++
			row[climbed[i]] = route{cost: p.Dist[climbed[i]], hops: hops}
		}
		climbed = climbed[:0]
	}
	n.routes[src] = row
	return row, nil
}

// Cost returns the shortest-path cost between two nodes.
func (n *Network) Cost(from, to graph.NodeID) (float64, error) {
	row, err := n.routesFrom(from)
	if err != nil {
		return 0, err
	}
	r, ok := row[to]
	if !ok {
		return 0, fmt.Errorf("%w: %d→%d", ErrNoRoute, from, to)
	}
	return r.cost, nil
}

// flight is an envelope in the air: the scheduler record that lands it and
// the envelope itself, in one reusable allocation owned by the network.
type flight struct {
	ev  sim.Event
	n   *Network
	env Envelope
}

// Run lands the flight. The envelope is copied out and the flight returned
// to the free list before the handler sees anything, so a handler that sends
// from inside Receive may be handed this very flight: nothing of the landed
// envelope is left in it. The payload is the other way round: it goes home
// only once deliver is back — delivered or dropped — so a handler that sends
// from inside Receive is never handed the box it is still reading.
func (f *flight) Run() {
	n, env := f.n, f.env
	f.env = Envelope{}
	n.free = append(n.free, f)
	n.deliver(env)
	n.recycle(env.Payload)
}

// recycle ends the network's ownership of a payload: a Box goes back to its
// sender's free list, anything else is left to the garbage collector.
func (n *Network) recycle(payload any) {
	if r, ok := payload.(recyclable); ok {
		r.recycle()
		if n.afterRecycle != nil {
			n.afterRecycle(payload)
		}
	}
}

// AfterRecycle installs a test hook that is handed every box right after the
// network has cleared it and put it back on its free list. A test overwrites
// the box with garbage there, so a handler that kept a pointer past Receive
// reads nonsense and not plausible zeros. Pass nil to remove it.
func (n *Network) AfterRecycle(fn func(payload any)) { n.afterRecycle = fn }

// post puts an envelope in the air for hops links at the given route cost.
func (n *Network) post(from, to graph.NodeID, payload any, hops int, cost float64) {
	var f *flight
	if last := len(n.free) - 1; last >= 0 {
		f, n.free = n.free[last], n.free[:last]
	} else {
		f = &flight{n: n}
	}
	f.env = Envelope{
		From: from, To: to, Payload: payload,
		SentAt: n.sched.Now(), Hops: hops, Cost: cost,
	}
	delay := sim.Time(cost*float64(n.DelayPerCost)) + n.extraDelay[from] + n.extraDelay[to]
	n.sched.Schedule(&f.ev, n.sched.Now()+delay, f)
}

// Send routes a message from one node to another along the shortest path.
// The sender must be up and a route must exist; whether the destination is
// up is only checked at delivery time (messages to a node that is down on
// arrival are dropped and counted, which is how the paper's servers "become
// unavailable for receiving mail"). A *Box payload is the network's from this
// call on: it is recycled when the flight ends, or at once if Send refuses.
func (n *Network) Send(from, to graph.NodeID, payload any) error {
	return n.refused(payload, n.send(from, to, payload))
}

// refused passes a send's verdict on; a payload whose flight never started
// goes home at once.
func (n *Network) refused(payload any, err error) error {
	if err != nil {
		n.recycle(payload)
	}
	return err
}

func (n *Network) send(from, to graph.NodeID, payload any) error {
	if _, ok := n.handlers[from]; !ok {
		return fmt.Errorf("%w: %d", ErrUnknownNode, from)
	}
	if n.down[from] {
		return fmt.Errorf("%w: %d", ErrSenderDown, from)
	}
	row, err := n.routesFrom(from)
	if err != nil {
		return err
	}
	r, ok := row[to]
	if !ok {
		if _, known := n.topo.Node(to); !known {
			return fmt.Errorf("%w: %d", ErrUnknownNode, to)
		}
		return fmt.Errorf("%w: %d→%d", ErrNoRoute, from, to)
	}
	n.post(from, to, payload, r.hops, r.cost)
	return nil
}

// SendDirect sends a message across a single link; from and to must be
// adjacent. This is the primitive the distributed MST algorithm uses
// ("sending messages over attached links", §3.3.1-A). It takes a *Box payload
// over exactly as Send does.
func (n *Network) SendDirect(from, to graph.NodeID, payload any) error {
	return n.refused(payload, n.sendDirect(from, to, payload))
}

func (n *Network) sendDirect(from, to graph.NodeID, payload any) error {
	if _, ok := n.handlers[from]; !ok {
		return fmt.Errorf("%w: %d", ErrUnknownNode, from)
	}
	if n.down[from] {
		return fmt.Errorf("%w: %d", ErrSenderDown, from)
	}
	w, ok := n.topo.Weight(from, to)
	if !ok {
		return fmt.Errorf("%w: %d-%d", ErrNotNeighbors, from, to)
	}
	n.post(from, to, payload, 1, w)
	return nil
}

func (n *Network) deliver(env Envelope) {
	h, ok := n.handlers[env.To]
	if !ok {
		n.stats.Inc("dropped_no_handler")
		return
	}
	if n.down[env.To] {
		n.stats.Inc("dropped_dest_down")
		return
	}
	if p := n.dropProb[env.To]; p > 0 && n.sched.Rand().Float64() < p {
		n.stats.Inc("dropped_injected")
		return
	}
	n.stats.Inc("delivered")
	n.stats.Add("hops", int64(env.Hops))
	n.stats.Add("cost_milli", int64(env.Cost*1000+0.5))
	n.latency.Observe(float64(n.sched.Now() - env.SentAt))
	h.Receive(env)
}
