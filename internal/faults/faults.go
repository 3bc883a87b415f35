// Package faults is the deterministic fault-injection engine behind the
// repository's reliability claims: it compiles a seeded fault schedule —
// server crash/recover windows, link failures, added latency, transient
// message drops — from a small spec, and drives both transports through a
// common Injector interface: the discrete-event simulation
// (internal/netsim, via SimTarget) and the live goroutine runtime
// (internal/livenet, via internal/loadgen's LiveDriver).
//
// The paper's §3.1.2c headline guarantee is that GetMail plus
// authority-list buffering loses no messages "even when some servers fail"
// (claims E2/E12). A guarantee exercised only on a deterministic simulator
// is a conjecture about the concurrent runtime, so a schedule runs on either
// transport. This package compiles and injects; the workload and the audit
// that every accepted message is retrieved exactly once are
// internal/loadgen's Engine and Auditors, which take a Schedule in their
// Config and an Injector from their Driver (chaos_test.go here runs them).
//
// Time in a schedule is measured in abstract ticks, so the same schedule is
// replayable on virtual time (one tick = a fixed slice of simulated time)
// and on wall-clock time (one tick = a short real sleep). Compiling the
// same Spec twice yields byte-identical schedules, and replaying a schedule
// on the simulator reproduces the identical event sequence run-to-run.
package faults

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
)

// Kind enumerates the fault event types.
type Kind uint8

// Fault event kinds. Every window-opening kind has a closing partner:
// Compile always pairs a Crash with a Recover, a LinkFail with a
// LinkRestore, and a Latency/Drop set with a later clear (zero value).
const (
	Crash Kind = iota + 1
	Recover
	LinkFail
	LinkRestore
	Latency // set added delay on a server's traffic; DelayTicks 0 clears
	Drop    // set transient drop probability on a node; Prob 0 clears
	// Kill/Restart are the durability-grade crash pair: Kill destroys the
	// server's in-memory state (a process death), Restart brings it back
	// from its durable store. A Crash/Recover window survives on memory
	// alone; a Kill/Restart window survives only if the store persisted.
	Kill
	Restart
)

func (k Kind) String() string {
	switch k {
	case Crash:
		return "crash"
	case Recover:
		return "recover"
	case LinkFail:
		return "link-fail"
	case LinkRestore:
		return "link-restore"
	case Latency:
		return "latency"
	case Drop:
		return "drop"
	case Kill:
		return "kill"
	case Restart:
		return "restart"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Event is one scheduled fault.
type Event struct {
	Tick   int    // schedule offset in ticks
	Kind   Kind   //
	Target string // server/node name; link events use Target–Peer
	Peer   string // second link endpoint (LinkFail/LinkRestore)

	DelayTicks int     // Latency: added delay in ticks (0 clears)
	Prob       float64 // Drop: drop probability (0 clears)
}

func (e Event) String() string {
	switch e.Kind {
	case LinkFail, LinkRestore:
		return fmt.Sprintf("t%d %s %s-%s", e.Tick, e.Kind, e.Target, e.Peer)
	case Latency:
		return fmt.Sprintf("t%d %s %s +%d ticks", e.Tick, e.Kind, e.Target, e.DelayTicks)
	case Drop:
		return fmt.Sprintf("t%d %s %s p=%.2f", e.Tick, e.Kind, e.Target, e.Prob)
	default:
		return fmt.Sprintf("t%d %s %s", e.Tick, e.Kind, e.Target)
	}
}

// Schedule is a compiled fault schedule: events in non-decreasing tick
// order. Schedules are plain data — store them, print them, replay them.
type Schedule struct {
	Seed   int64
	Events []Event
}

// Horizon reports the tick just past the last event (0 for an empty
// schedule). By construction every fault window compiled by Compile is
// closed at or before the horizon, so a run that applies the whole schedule
// ends with no fault active.
func (s Schedule) Horizon() int {
	h := 0
	for _, e := range s.Events {
		if e.Tick+1 > h {
			h = e.Tick + 1
		}
	}
	return h
}

// Spec describes the fault load to compile. Counts are window counts: one
// crash window emits two events (Crash then Recover).
type Spec struct {
	Seed  int64
	Ticks int // horizon: all windows open and close within [0, Ticks]

	Servers []string    // crash / latency / unreachability candidates
	Links   [][2]string // link-failure candidates (endpoint name pairs)
	// DropTargets are nodes whose inbound traffic may be transiently
	// dropped. On the simulator these should be host nodes: servers retry
	// transfers on timeout, but a drop that silently skips a live, stable
	// authority server would strand mail beyond the GetMail walk. The live
	// transport retries transient drops on the same server, so servers are
	// safe targets there.
	DropTargets []string
	// KillTargets are servers that may be kill-restarted: torn down with
	// loss of in-memory state and restarted from their durable store. The
	// fault surface should only offer them when the transport actually runs
	// durable stores — kill-restarting a memory-only server is data loss by
	// construction, not a survivable fault.
	KillTargets []string

	Crashes      int // crash → recover windows
	LinkFaults   int // link fail → restore windows
	Latencies    int // added-latency windows on servers
	Drops        int // transient-drop windows on DropTargets
	KillRestarts int // kill → restart-from-disk windows on KillTargets

	MinOutage int // shortest window in ticks (default Ticks/20, min 1)
	MaxOutage int // longest window in ticks (default Ticks/5, min MinOutage)

	MaxDelayTicks int // latency window ceiling (default 2)
}

// maxDropProb is the drop window ceiling: a window drops between a quarter of
// it and all of it.
const maxDropProb = 0.3

func (sp Spec) withDefaults() Spec {
	if sp.MinOutage <= 0 {
		sp.MinOutage = sp.Ticks / 20
		if sp.MinOutage < 1 {
			sp.MinOutage = 1
		}
	}
	if sp.MaxOutage < sp.MinOutage {
		sp.MaxOutage = sp.Ticks / 5
		if sp.MaxOutage < sp.MinOutage {
			sp.MaxOutage = sp.MinOutage
		}
	}
	// A window of length Ticks (or more) leaves no room to place a start
	// inside the horizon: window() draws start from [0, Ticks−length), which
	// is empty. Clamp both bounds to Ticks−1 so every caller-supplied outage
	// still fits strictly inside [0, Ticks].
	if sp.MaxOutage > sp.Ticks-1 {
		sp.MaxOutage = sp.Ticks - 1
	}
	if sp.MinOutage > sp.MaxOutage {
		sp.MinOutage = sp.MaxOutage
	}
	if sp.MaxDelayTicks <= 0 {
		sp.MaxDelayTicks = 2
	}
	return sp
}

// Compile expands the spec into a concrete schedule. It is a pure function
// of the spec: identical specs compile to identical schedules, which is
// what makes a chaos run replayable. Every window it opens is closed by a
// partner event no later than spec.Ticks.
func Compile(sp Spec) (Schedule, error) {
	sp = sp.withDefaults()
	if sp.Ticks <= 1 {
		return Schedule{}, errors.New("faults: spec needs Ticks > 1")
	}
	if (sp.Crashes > 0 || sp.Latencies > 0) && len(sp.Servers) == 0 {
		return Schedule{}, errors.New("faults: no servers for crash/latency windows")
	}
	if sp.LinkFaults > 0 && len(sp.Links) == 0 {
		return Schedule{}, errors.New("faults: no links for link-fault windows")
	}
	if sp.Drops > 0 && len(sp.DropTargets) == 0 {
		return Schedule{}, errors.New("faults: no DropTargets for drop windows")
	}
	if sp.KillRestarts > 0 && len(sp.KillTargets) == 0 {
		return Schedule{}, errors.New("faults: no KillTargets for kill-restart windows")
	}
	// Crash and kill windows on the same server may interleave so that a
	// Recover lands between a Kill and its Restart, reviving the node while
	// its store is torn down. Require disjoint pools when both kinds are in
	// play rather than compile a schedule with that hazard.
	if sp.Crashes > 0 && sp.KillRestarts > 0 {
		crashPool := make(map[string]bool, len(sp.Servers))
		for _, s := range sp.Servers {
			crashPool[s] = true
		}
		for _, s := range sp.KillTargets {
			if crashPool[s] {
				return Schedule{}, fmt.Errorf(
					"faults: %q is both a crash and a kill target; the pools must be disjoint when both window kinds are requested", s)
			}
		}
	}

	rng := rand.New(rand.NewSource(sp.Seed))
	var events []Event
	window := func() (start, end int) {
		span := sp.MaxOutage - sp.MinOutage + 1
		length := sp.MinOutage + rng.Intn(span)
		start = rng.Intn(sp.Ticks - length)
		return start, start + length
	}
	for i := 0; i < sp.Crashes; i++ {
		t := sp.Servers[rng.Intn(len(sp.Servers))]
		start, end := window()
		events = append(events,
			Event{Tick: start, Kind: Crash, Target: t},
			Event{Tick: end, Kind: Recover, Target: t})
	}
	for i := 0; i < sp.LinkFaults; i++ {
		l := sp.Links[rng.Intn(len(sp.Links))]
		start, end := window()
		events = append(events,
			Event{Tick: start, Kind: LinkFail, Target: l[0], Peer: l[1]},
			Event{Tick: end, Kind: LinkRestore, Target: l[0], Peer: l[1]})
	}
	for i := 0; i < sp.Latencies; i++ {
		t := sp.Servers[rng.Intn(len(sp.Servers))]
		start, end := window()
		delay := 1 + rng.Intn(sp.MaxDelayTicks)
		events = append(events,
			Event{Tick: start, Kind: Latency, Target: t, DelayTicks: delay},
			Event{Tick: end, Kind: Latency, Target: t, DelayTicks: 0})
	}
	for i := 0; i < sp.Drops; i++ {
		t := sp.DropTargets[rng.Intn(len(sp.DropTargets))]
		start, end := window()
		p := maxDropProb * (0.25 + 0.75*rng.Float64())
		events = append(events,
			Event{Tick: start, Kind: Drop, Target: t, Prob: p},
			Event{Tick: end, Kind: Drop, Target: t, Prob: 0})
	}
	for i := 0; i < sp.KillRestarts; i++ {
		t := sp.KillTargets[rng.Intn(len(sp.KillTargets))]
		start, end := window()
		events = append(events,
			Event{Tick: start, Kind: Kill, Target: t},
			Event{Tick: end, Kind: Restart, Target: t})
	}
	// Stable sort: ties keep generation order, so a window's close never
	// precedes its open and identical specs give identical sequences.
	sort.SliceStable(events, func(i, j int) bool { return events[i].Tick < events[j].Tick })
	return Schedule{Seed: sp.Seed, Events: events}, nil
}

// Injector applies fault events to a transport. Implementations must be
// idempotent per event (crashing a crashed server is a no-op) so a schedule
// can be replayed.
type Injector interface {
	Inject(e Event) error
}
