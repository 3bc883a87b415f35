package faults

import (
	"fmt"

	"github.com/largemail/largemail/internal/graph"
	"github.com/largemail/largemail/internal/netsim"
	"github.com/largemail/largemail/internal/sim"
)

// KillRestarter is a server that can be torn down with loss of in-memory
// state and brought back from its durable store — internal/server's
// Kill/RestartFromDisk pair. Both methods must be idempotent so overlapping
// schedule windows replay cleanly.
type KillRestarter interface {
	Kill() error
	RestartFromDisk() error
}

// SimTarget injects a schedule into the discrete-event network. Node names
// in events are resolved through the Nodes map; one schedule tick equals
// Tick units of virtual time. Kill/Restart events additionally need the
// named server in Servers — a network crash alone cannot destroy and
// recover mailbox state.
type SimTarget struct {
	Net   *netsim.Network
	Nodes map[string]graph.NodeID
	Tick  sim.Time

	// Servers maps server names to their kill-restart handles; only needed
	// when the schedule contains Kill/Restart events.
	Servers map[string]KillRestarter

	// failed remembers the weight of links this target removed, so a
	// LinkRestore re-adds exactly what a LinkFail took away and replays of
	// overlapping windows stay idempotent.
	failed map[[2]graph.NodeID]float64

	// Observer, when non-nil, is called after every successfully injected
	// event. Scenario auditors use it to track which nodes the schedule has
	// down at any moment — e.g. the convergecast auditor excuses subtrees of
	// crashed servers from the no-loss check but then demands they be marked
	// unavailable.
	Observer func(Event)
}

// NewSimTarget wires an injector to a simulated network. tick is the
// virtual duration of one schedule tick (e.g. 10*sim.Unit).
func NewSimTarget(net *netsim.Network, nodes map[string]graph.NodeID, tick sim.Time) *SimTarget {
	return &SimTarget{
		Net: net, Nodes: nodes, Tick: tick,
		failed: make(map[[2]graph.NodeID]float64),
	}
}

func (t *SimTarget) node(name string) (graph.NodeID, error) {
	id, ok := t.Nodes[name]
	if !ok {
		return 0, fmt.Errorf("faults: unknown sim node %q", name)
	}
	return id, nil
}

func linkKey(a, b graph.NodeID) [2]graph.NodeID {
	if a > b {
		a, b = b, a
	}
	return [2]graph.NodeID{a, b}
}

// Inject implements Injector on the simulated network.
func (t *SimTarget) Inject(e Event) error {
	if err := t.inject(e); err != nil {
		return err
	}
	if t.Observer != nil {
		t.Observer(e)
	}
	return nil
}

func (t *SimTarget) inject(e Event) error {
	id, err := t.node(e.Target)
	if err != nil {
		return err
	}
	switch e.Kind {
	case Crash:
		t.Net.Crash(id)
	case Recover:
		t.Net.Recover(id)
	case LinkFail, LinkRestore:
		peer, err := t.node(e.Peer)
		if err != nil {
			return err
		}
		key := linkKey(id, peer)
		if e.Kind == LinkFail {
			if _, failed := t.failed[key]; failed {
				return nil // window overlap: already down
			}
			w, ok := t.Net.Topology().Weight(id, peer)
			if !ok {
				return fmt.Errorf("faults: no link %s-%s", e.Target, e.Peer)
			}
			if err := t.Net.FailLink(id, peer); err != nil {
				return err
			}
			t.failed[key] = w
			return nil
		}
		w, failed := t.failed[key]
		if !failed {
			return nil // window overlap: already restored
		}
		delete(t.failed, key)
		return t.Net.RestoreLink(id, peer, w)
	case Latency:
		t.Net.SetExtraDelay(id, sim.Time(e.DelayTicks)*t.Tick)
	case Drop:
		t.Net.SetDropProb(id, e.Prob)
	case Kill, Restart:
		srv, ok := t.Servers[e.Target]
		if !ok {
			return fmt.Errorf("faults: no kill-restart handle for server %q", e.Target)
		}
		if e.Kind == Kill {
			return srv.Kill()
		}
		return srv.RestartFromDisk()
	default:
		return fmt.Errorf("faults: unknown event kind %v", e.Kind)
	}
	return nil
}
