package loadgen

import (
	"fmt"
	"strconv"

	"github.com/largemail/largemail/internal/faults"
	"github.com/largemail/largemail/internal/graph"
	"github.com/largemail/largemail/internal/locind"
	"github.com/largemail/largemail/internal/names"
	"github.com/largemail/largemail/internal/obs"
	"github.com/largemail/largemail/internal/queueing"
	"github.com/largemail/largemail/internal/server"
	"github.com/largemail/largemail/internal/sim"
)

// RoamConfig configures a RoamDriver.
type RoamConfig struct {
	Seed int64
	Pop  Population
	// Tick is the virtual length of one schedule tick (default 10 units).
	Tick sim.Time
}

// OverheadEvent is one piece of roaming-tracking work a delivery incurred,
// reported by the locind overhead hook: "consult" per location query issued,
// "roam_alert" when a consultation located a roamed user.
type OverheadEvent struct {
	User  int
	Event string
}

// RoamDriver drives the paper's second architecture (§3.2, limited
// location-independent access) behind the same Driver contract as the
// syntax-directed SimDriver: one locind.System per region federated over a
// shared regional topology, hash sub-group authority lists instead of
// host-derived ones, and agents that roam between hosts without renames.
//
// Retrieval in this design polls the whole live authority list every call
// (locind keeps no LastCheckingTime), so the strict §3.1.2c poll audit does
// not apply: run this driver through RunRoamScenario (which always installs
// an OnTick hook, disabling that audit) or under a fault schedule.
type RoamDriver struct {
	simWorld

	fed     *locind.Federation
	systems []*locind.System // per region

	agents  map[int]*locind.Agent
	loginOK map[int]bool // user's last Login attempt succeeded
	order   []int        // materialized users, in first-touch order

	overhead []OverheadEvent
}

// NewRoamDriver builds the federated location-independent world.
func NewRoamDriver(cfg RoamConfig) (*RoamDriver, error) {
	cfg.Pop = cfg.Pop.withDefaults()
	p := cfg.Pop
	d := &RoamDriver{
		simWorld: newSimWorld(cfg.Seed, p, cfg.Tick, 0),
		fed:      locind.NewFederation(),
		agents:   make(map[int]*locind.Agent),
		loginOK:  make(map[int]bool),
	}

	for r := 0; r < p.Regions; r++ {
		servers := make([]graph.NodeID, p.ServersPerRegion)
		for j := range servers {
			servers[j] = serverID(r*p.ServersPerRegion + j)
		}
		sys, err := locind.NewSystem(locind.Config{
			Region:    p.RegionName(r),
			Net:       d.net,
			Servers:   servers,
			Subgroups: 2 * p.ServersPerRegion, // the hash modulus a region starts with
			ListLen:   p.AuthorityLen,
			Stats:     d.reg,
			Trace:     d.trace,
		})
		if err != nil {
			return nil, fmt.Errorf("loadgen: region %d: %w", r, err)
		}
		for i := 0; i < p.HostsPerRegion; i++ {
			gh := r*p.HostsPerRegion + i
			if _, err := sys.AddHost(fmt.Sprintf("h%d", gh), hostID(gh)); err != nil {
				return nil, err
			}
		}
		if err := d.fed.Add(sys); err != nil {
			return nil, err
		}
		sys.SetOverheadHook(d.noteOverhead)
		d.systems = append(d.systems, sys)
	}
	return d, nil
}

// noteOverhead buffers one overhead-hook event for DrainOverheadEvents.
func (d *RoamDriver) noteOverhead(user names.Name, event string) {
	if len(user.User) < 2 || user.User[0] != 'u' {
		return
	}
	idx, err := strconv.Atoi(user.User[1:])
	if err != nil {
		return
	}
	d.overhead = append(d.overhead, OverheadEvent{User: idx, Event: event})
}

// DrainOverheadEvents returns the overhead events recorded since the last
// drain. The §3.2.2c auditor consumes them each tick.
func (d *RoamDriver) DrainOverheadEvents() []OverheadEvent {
	out := d.overhead
	d.overhead = nil
	return out
}

// System returns region r's locind system.
func (d *RoamDriver) System(r int) *locind.System { return d.systems[r] }

// LoginOK reports whether user u's last login attempt succeeded — users the
// overhead auditor may hold to the at-primary-means-no-consultation rule.
func (d *RoamDriver) LoginOK(u int) bool { return d.loginOK[u] }

// Materialized returns the users touched so far, in first-touch order.
func (d *RoamDriver) Materialized() []int { return d.order }

// CurrentHost returns u's current global host index (primary until roamed).
func (d *RoamDriver) CurrentHost(u int) int {
	if a, ok := d.agents[u]; ok {
		return int(a.CurrentHost() - simHostBase - 1)
	}
	return d.pop.HostOf(u)
}

// ensure materializes user u: an agent at their primary host plus a login
// announcement. A login that failed (all region servers down) is retried on
// the next touch.
func (d *RoamDriver) ensure(u int) (*locind.Agent, error) {
	if a, ok := d.agents[u]; ok {
		if !d.loginOK[u] {
			d.loginOK[u] = a.Login() == nil
		}
		return a, nil
	}
	sys := d.systems[d.pop.RegionOf(u)]
	a, err := sys.NewAgent(d.pop.Name(u))
	if err != nil {
		return nil, err
	}
	d.agents[u] = a
	d.order = append(d.order, u)
	d.loginOK[u] = a.Login() == nil
	return a, nil
}

// Roam moves user u to another host inside their region (no rename — the
// defining property of §3.2) and logs in there. The engine's auditors keep
// holding the user to exactly-once delivery across the move.
func (d *RoamDriver) Roam(u, gh int) error {
	a, err := d.ensure(u)
	if err != nil {
		return err
	}
	if gh/d.pop.HostsPerRegion != d.pop.RegionOf(u) {
		return fmt.Errorf("loadgen: host %d outside u%d's region", gh, u)
	}
	if err := a.MoveTo(hostID(gh)); err != nil {
		return err
	}
	d.loginOK[u] = a.Login() == nil
	return nil
}

// Rehash changes every region's hash modulus — the live reconfiguration of
// §3.2.3c — and returns the total mailboxes migrated.
func (d *RoamDriver) Rehash(k int) (int, error) {
	moved := 0
	for _, sys := range d.systems {
		m, err := sys.Rehash(k)
		moved += m
		if err != nil {
			return moved, err
		}
	}
	return moved, nil
}

// Submit implements Driver: the nearest live server to the sender's current
// host accepts in-process — the commit point; an error means nothing was
// accepted.
func (d *RoamDriver) Submit(from int, to []int, subject, body string) (string, error) {
	fa, err := d.ensure(from)
	if err != nil {
		return "", err
	}
	toNames := make([]names.Name, len(to))
	for i, u := range to {
		if _, err := d.ensure(u); err != nil {
			return "", err
		}
		toNames[i] = d.pop.Name(u)
	}
	sys := d.systems[d.pop.RegionOf(from)]
	sid, err := sys.NearestServer(fa.CurrentHost())
	if err != nil {
		return "", err
	}
	srv, ok := sys.Server(sid)
	if !ok {
		return "", fmt.Errorf("loadgen: no server process on node %d", sid)
	}
	id, err := srv.Submit(server.SubmitRequest{From: fa.User(), To: toNames, Subject: subject, Body: body})
	if err != nil {
		return "", err
	}
	return id.String(), nil
}

// Retrieve implements Driver. locind's GetMail polls every live authority
// server each call, so Polls ≈ the authority length by design here; the
// polled servers stamp what they hand over, as in §3.1.
func (d *RoamDriver) Retrieve(u int) RetrieveResult {
	a, err := d.ensure(u)
	if err != nil {
		return RetrieveResult{}
	}
	p0, dup0 := a.Polls(), a.Duplicates()
	msgs := a.TakeMail() // only the IDs leave here; an agent lives as long as the run does
	ids := make([]string, len(msgs))
	for i, m := range msgs {
		ids[i] = m.ID.String()
	}
	a.DropNotifications()
	return RetrieveResult{
		IDs:          ids,
		Polls:        a.Polls() - p0,
		Duplicates:   a.Duplicates() - dup0,
		LastChecking: int64(d.sched.Now()),
	}
}

// Step implements Driver.
func (d *RoamDriver) Step(n int) { d.sched.RunFor(sim.Time(n) * d.tick) }

// Snapshot implements Driver: the shared locind counters and histograms
// (consultations, notify_*, rehash_*, lat_roam_resolve, the stage
// latencies), every server's counters summed under their own names
// (deposits_local, deposit_transfers, logins, ...) and the network's.
func (d *RoamDriver) Snapshot() obs.Snapshot {
	snap := netSnapshot(d.reg, d.net)
	d.eachServer(func(_ int, srv *server.Server) {
		for k, v := range srv.Stats().Counters() {
			snap.Counters[k] += v
		}
	})
	return snap
}

// eachServer calls fn with every server of every region, in global order.
func (d *RoamDriver) eachServer(fn func(gs int, srv *server.Server)) {
	for r, sys := range d.systems {
		for j := 0; j < d.pop.ServersPerRegion; j++ {
			gs := r*d.pop.ServersPerRegion + j
			if srv, ok := sys.Server(serverID(gs)); ok {
				fn(gs, srv)
			}
		}
	}
}

// Injector implements Driver.
func (d *RoamDriver) Injector() faults.Injector { return d.injector() }

// FaultSurface implements Driver. Same safety reasoning as the SimDriver
// (Population.faultSurface): servers take crashes and latency (deposit
// retries plus the Recovered re-dispatch cover them), only hosts take drops
// — retrieval polls the servers directly — and only ≥3-server rings risk
// link cuts. No kill targets: the roaming driver's stores are memory-only.
func (d *RoamDriver) FaultSurface() faults.Spec {
	spec := d.pop.faultSurface(0)
	for gs := 0; gs < d.pop.TotalServers(); gs++ {
		spec.Servers = append(spec.Servers, serverLabel(gs))
	}
	return spec
}

// ServerLoads implements Driver: hash sub-groups spread users uniformly, so
// the prediction is the uniform share; observed deposits come from each
// server's counter.
func (d *RoamDriver) ServerLoads() []ServerLoad {
	p := d.pop
	perServer := p.Users / p.TotalServers()
	maxLoad := p.MaxLoad()
	rho := float64(perServer) / float64(maxLoad)
	var out []ServerLoad
	d.eachServer(func(gs int, srv *server.Server) {
		out = append(out, ServerLoad{
			Name:     serverLabel(gs),
			Region:   p.RegionName(gs / p.ServersPerRegion),
			Load:     perServer,
			MaxLoad:  maxLoad,
			Rho:      rho,
			QWait:    queueing.Wait(rho),
			Deposits: srv.Stats().Get("deposits_local"),
		})
	})
	return out
}
