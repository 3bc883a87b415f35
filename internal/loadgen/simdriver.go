package loadgen

import (
	"errors"
	"fmt"
	"slices"

	"github.com/largemail/largemail/internal/client"
	"github.com/largemail/largemail/internal/core"
	"github.com/largemail/largemail/internal/faults"
	"github.com/largemail/largemail/internal/graph"
	"github.com/largemail/largemail/internal/mail"
	"github.com/largemail/largemail/internal/mail/mailstore"
	"github.com/largemail/largemail/internal/names"
	"github.com/largemail/largemail/internal/obs"
	"github.com/largemail/largemail/internal/placement"
	"github.com/largemail/largemail/internal/queueing"
	"github.com/largemail/largemail/internal/server"
	"github.com/largemail/largemail/internal/sim"
)

// SimConfig configures a SimDriver.
type SimConfig struct {
	Seed int64
	Pop  Population
	// SpareServersPerRegion adds unwired server nodes to each region's
	// topology so AddServer reconfigurations have hardware to claim
	// (default 0).
	SpareServersPerRegion int
	// BatchSize enables relay batching on every server: transfers to a
	// common destination coalesce into TransferBatch envelopes of up to this
	// many items (≤1 keeps the classic single-transfer path).
	BatchSize int
	// FlushInterval bounds how long a staged batch below the size watermark
	// may wait (default 2 sim units; only meaningful with BatchSize > 1).
	FlushInterval sim.Time
	// RetryTimeout is every server's floor on a transfer's (or a batch's)
	// ack timer, whose value is otherwise the route's round trip plus two
	// units (0 = server default, 8 units).
	RetryTimeout sim.Time
	// DataDir, when set, makes every server's mailbox store durable: the
	// server on node N journals to DataDir/s<N>, and the fault surface offers
	// KillTargets so a schedule may destroy in-memory state and restart from
	// disk.
	DataDir string
	// Fsync is the WAL fsync policy when DataDir is set.
	Fsync mailstore.FsyncMode

	// Policy selects the placement policy ("static", "jsq", "rebalance");
	// empty means static: every host's §3.1.1 list, handed out as it is.
	Policy string
	// JSQD is JSQ(d)'s sample width (0 = the classic d=2).
	JSQD int
	// ServiceRate is each server's service capacity in deposits per tick.
	// When > 0 the driver closes the feedback loop that gives online
	// policies something to win: per tick it estimates each server's
	// utilization ρ as EWMA(deposit arrivals)/ServiceRate, publishes it on
	// the "<server>.rho" gauge, and inflates the network delay of servers
	// pushed past ρ=1 — queueing delay, §2.2's "minimize the mail delay" in
	// observable form. Zero publishes placement-share ρ instead and leaves
	// delays alone.
	ServiceRate float64
}

// SimDriver drives the discrete-event transport: a core.Fabric — the §3.1.1
// assignment, directory, servers, hosts and authority lists of every region —
// over the population's own topology (host spokes, intra-region server ring,
// inter-region ring), and a lazy user table on top of it: users are indices,
// and a directory entry and an agent exist only for those the workload has
// touched. core.SyntaxSystem is the eager, by-name table over the same fabric,
// which a million-user population cannot afford.
type SimDriver struct {
	simWorld
	cfg SimConfig
	fab *core.Fabric

	dirs  []*server.Directory             // per region, the fabric's
	lists map[graph.NodeID][]graph.NodeID // per host, the fabric's live table

	agents  map[int]*client.Agent
	mint    nameMint
	toNames []names.Name     // Submit's recipient names; server.accept copies them
	ids     []mail.MessageID // Retrieve's result IDs, valid until the next Retrieve
	hostIdx map[int]int      // migrated users' host index

	placer
	static *placement.Static // the policy's base
	ticks  int               // schedule ticks stepped so far
}

// NewSimDriver builds the simulated world for a population.
func NewSimDriver(cfg SimConfig) (*SimDriver, error) {
	cfg.Pop = cfg.Pop.withDefaults()
	policy, err := placement.ParseName(cfg.Policy)
	if err != nil {
		return nil, err
	}
	p := cfg.Pop
	d := &SimDriver{
		simWorld: newSimWorld(cfg.Seed, p, cfg.SpareServersPerRegion),
		cfg:      cfg,
		agents:   make(map[int]*client.Agent),
		hostIdx:  make(map[int]int),
	}
	users := make(map[graph.NodeID]int, p.TotalHosts())
	for gh := 0; gh < p.TotalHosts(); gh++ {
		users[hostID(gh)] = p.UsersOnHost(gh)
	}
	// A policy that can change a user's placement after registration needs
	// deposit-time re-routing and rotated relays on the servers.
	d.fab, err = core.NewFabric(d.topo, server.Config{
		Net: d.net, Trace: d.trace,
		BatchSize: cfg.BatchSize, FlushInterval: cfg.FlushInterval,
		RetryTimeout: cfg.RetryTimeout, DataDir: cfg.DataDir, Fsync: cfg.Fsync,
		OnlinePlacement: policy != placement.NameStatic,
	}, users, p.AuthorityLen, p.MaxLoad())
	if err != nil {
		return nil, fmt.Errorf("loadgen: %w", err)
	}
	d.fab.Users = d.eachUser
	d.lists = d.fab.Lists()
	for r := 0; r < p.Regions; r++ {
		dir, _ := d.fab.Directory(p.RegionName(r))
		d.dirs = append(d.dirs, dir)
	}

	// The placement policy over the fabric's §3.1.1 assignments. Its world is
	// the wired fleet: a server added from the spare pool serves the lists the
	// assignment gives it but stays outside JSQ sampling and rebalancing.
	world := p.world()
	d.static, err = placement.NewStatic(placement.StaticConfig{
		World:  world,
		Lists:  func(gh int) []graph.NodeID { return d.lists[hostID(gh)] },
		SlotOf: d.nodeSlot,
	})
	if err != nil {
		return nil, err
	}
	d.placer.start(d, p, policy, d.static, placement.Config{
		World: world, Seed: cfg.Seed, D: cfg.JSQD,
		Gauges: d.reg, Label: d.slotLabel,
	}, cfg.ServiceRate)
	return d, nil
}

// slotNode maps a placement slot to its server node; nodeSlot is the inverse
// (-1, false for a node that is no server). Slots are region-major over the
// wired servers — the policy world — and the spare-pool nodes are numbered
// after it, so the static policy can name a server AddServer has wired
// without the online policies ever sampling one. slotLabel names a slot's
// instruments with the driver's raw server label, which counts spare slots —
// placement's default "S<slot>" would collide with a different server whenever
// spares exist.
func (d *SimDriver) slotNode(slot int) graph.NodeID {
	spr, spares := d.pop.ServersPerRegion, d.cfg.SpareServersPerRegion
	if spare := slot - d.pop.TotalServers(); spare >= 0 {
		return serverID(spare/spares*(spr+spares) + spr + spare%spares)
	}
	return serverID(slot/spr*(spr+spares) + slot%spr)
}

func (d *SimDriver) nodeSlot(id graph.NodeID) (int, bool) {
	raw := int(id - simServerBase - 1)
	spr, spares := d.pop.ServersPerRegion, d.cfg.SpareServersPerRegion
	r, j := raw/(spr+spares), raw%(spr+spares)
	switch {
	case raw < 0 || r >= d.pop.Regions:
		return -1, false
	case j >= spr:
		return d.pop.TotalServers() + r*spares + j - spr, true
	}
	return r*spr + j, true
}

func (d *SimDriver) slotLabel(slot int) string { return nodeLabel(d.slotNode(slot)) }

// nodeLabel is a server node's label in the generated topology.
func nodeLabel(id graph.NodeID) string { return serverLabel(int(id - simServerBase - 1)) }

// userHost returns the user's current global host index (migrations move).
func (d *SimDriver) userHost(u int) int {
	if gh, ok := d.hostIdx[u]; ok {
		return gh
	}
	return d.pop.HostOf(u)
}

// ensure materializes user u: a directory entry carrying the authority list
// the policy places them on (recipients must resolve before mail can route to
// them) and a lazily created agent. Under the static policy that is the
// host's own list, shared by every user of the host.
func (d *SimDriver) ensure(u int) (*client.Agent, error) {
	if a, ok := d.agents[u]; ok {
		return a, nil
	}
	name, gh := d.mint.name(d.pop, u), d.pop.HostOf(u) // a user nobody touched has not moved
	h := hostID(gh)
	list := d.lists[h]
	slots := d.place(u, gh) // an empty answer leaves the host's list in force
	offHost := len(slots) > 0 && len(slots) != len(list)
	for i := 0; i < len(slots) && !offHost; i++ {
		offHost = d.slotNode(slots[i]) != list[i]
	}
	if offHost {
		// A load-aware placement (JSQ sample, admission diversion) is a
		// rehoming the moment it happens: a reconfiguration's refresh must
		// not snap the user back to the host's list — mail already sits on
		// the chosen primary.
		list = make([]graph.NodeID, len(slots))
		for i, s := range slots {
			list[i] = d.slotNode(s)
		}
		d.rehomed[u] = d.ticks
	}
	a, err := d.fab.Register(name, h, list)
	if err != nil {
		return nil, err
	}
	d.agents[u] = a
	return a, nil
}

// eachUser is the fabric's Users hook over the by-index table. A list refresh
// may change a user's primary; the placement books follow it.
func (d *SimDriver) eachUser(region string, fn func(a *client.Agent, host graph.NodeID, pinned bool)) {
	for u, a := range d.agents {
		if a.User().Region != region {
			continue
		}
		_, pinned := d.rehomed[u]
		before := a.Authority()[0]
		fn(a, hostID(d.userHost(u)), pinned)
		d.rebook(u, before, a.Authority()[0])
	}
}

// rebook moves user u in the placement books from one primary to another.
func (d *SimDriver) rebook(u int, from, to graph.NodeID) {
	fs, _ := d.nodeSlot(from)
	ts, _ := d.nodeSlot(to)
	d.book(u, fs, ts)
}

// Submit implements Driver: the sender's first live authority server
// accepts the message in-process (server.Submit), which is the commit
// point. No SubmitAck round-trip is scheduled — only the delivery pipeline
// runs on the simulator, so submission throughput scales with population.
func (d *SimDriver) Submit(from int, to []int, subject, body string) (string, error) {
	fa, err := d.ensure(from)
	if err != nil {
		return "", err
	}
	d.toNames = d.toNames[:0]
	for _, u := range to {
		a, err := d.ensure(u)
		if err != nil {
			return "", err
		}
		d.toNames = append(d.toNames, a.User())
	}
	for _, sv := range fa.Authority() {
		if !d.net.IsUp(sv) {
			continue
		}
		id, err := d.fab.Lookup(sv).Submit(server.SubmitRequest{
			From: fa.User(), To: d.toNames, Subject: subject, Body: body,
		})
		if err != nil {
			return "", err
		}
		return id.String(), nil
	}
	return "", fmt.Errorf("loadgen: no live authority server for %v", fa.User())
}

// Retrieve implements Driver. Only the IDs leave here, in a slice the next
// Retrieve reuses; the batch itself is released, so a one-message batch's
// slot goes to the next deposit into an empty mailbox.
func (d *SimDriver) Retrieve(u int) RetrieveResult {
	a, err := d.ensure(u)
	if err != nil {
		return RetrieveResult{}
	}
	before := a.Stats()
	msgs := a.TakeMail() // an agent lives as long as the run does
	after := a.Stats()
	d.noteRetrieved(u, len(msgs))
	d.ids = d.ids[:0]
	for _, m := range msgs {
		d.ids = append(d.ids, m.ID)
	}
	mail.Release(msgs)
	a.DropNotifications()
	return RetrieveResult{
		IDs:          d.ids,
		Polls:        after.Polls - before.Polls,
		Duplicates:   after.Duplicates - before.Duplicates,
		LastChecking: int64(a.LastCheckingTime()),
	}
}

// Step implements Driver. Every tick also refreshes the per-server gauges the
// policies observe and, when ServiceRate closes the loop, the congestion
// delays.
func (d *SimDriver) Step(n int) {
	for i := 0; i < n; i++ {
		d.sched.RunFor(simTick)
		d.ticks++
		d.refresh(1)
	}
}

// deposits implements placedTransport. It also publishes the slot's qdepth
// (deposits − retrievals: mail buffered awaiting pickup), which the live
// servers keep inline.
func (d *SimDriver) deposits(slot int, qdepth *obs.Gauge) (int64, bool) {
	srv := d.fab.Lookup(d.slotNode(slot))
	if srv == nil {
		return 0, false // removed from service
	}
	dep := srv.Stats().Get("deposits_local")
	qdepth.Set(dep - srv.Stats().Get("retrieved_msgs"))
	return dep, true
}

// slow implements placedTransport: queueing delay — §2.2's "minimize the
// mail delay" in observable form — is extra network delay to the server.
func (d *SimDriver) slow(slot int, ticks float64) {
	d.net.SetExtraDelay(d.slotNode(slot), sim.Time(ticks*float64(simTick)))
}

// Snapshot implements Driver: the tracer-fed latency histograms plus the
// network's and servers' counters (prefixed net_/srv_).
func (d *SimDriver) Snapshot() obs.Snapshot {
	snap := netSnapshot(d.reg, d.net)
	for _, id := range d.fab.Servers() {
		for k, v := range d.fab.Lookup(id).Stats().Counters() {
			snap.Counters["srv_"+k] += v
		}
	}
	return snap
}

// Injector implements Driver. Kill/Restart events need the server handle,
// not just the network node — a network crash alone cannot destroy and
// recover mailbox state — so the target carries every active server.
func (d *SimDriver) Injector() faults.Injector {
	tgt := d.injector()
	tgt.Servers = make(map[string]faults.KillRestarter, len(d.fab.Servers()))
	for _, id := range d.fab.Servers() {
		tgt.Servers[nodeLabel(id)] = d.fab.Lookup(id)
	}
	return tgt
}

// FaultSurface implements Driver: Population.faultSurface's drop targets and
// ring links, plus crash/latency candidates — every wired server; crashes are
// covered by transfer retries plus GetMail's LastStartTime walk, and injected
// latency may double-send a transfer, which mailbox dedup absorbs.
func (d *SimDriver) FaultSurface() faults.Spec {
	spec := d.pop.faultSurface(d.cfg.SpareServersPerRegion)
	for _, id := range d.fab.Servers() {
		spec.Servers = append(spec.Servers, nodeLabel(id))
	}
	// Kill-restart only survives a durable store; a memory-only driver must
	// not offer targets (Compile would schedule guaranteed data loss).
	if d.cfg.DataDir != "" {
		spec.KillTargets = append([]string(nil), spec.Servers...)
	}
	return spec
}

// DurabilityStats sums the cumulative WAL write-path counters across every
// active server, including stores replaced by kill-restart cycles, and
// counts the current stores that stopped journaling (Latched); ok is false on
// a memory-only driver.
func (d *SimDriver) DurabilityStats() (mailstore.WALStats, bool) {
	var sum mailstore.WALStats
	any := false
	for _, id := range d.fab.Servers() {
		st, ok := d.fab.Lookup(id).WALStats()
		if !ok {
			continue
		}
		any = true
		sum.Add(st)
	}
	return sum, any
}

// Close syncs and closes every server's durable store (no-op for memory
// stores).
func (d *SimDriver) Close() error { return d.fab.Close() }

// ServerLoads implements Driver: the per-region assignment's predicted
// utilization next to the deposits each server actually served.
func (d *SimDriver) ServerLoads() []ServerLoad {
	var out []ServerLoad
	for _, id := range d.fab.Servers() {
		srv := d.fab.Lookup(id)
		a, _ := d.fab.Assignment(srv.Region())
		rho := a.Utilization(id)
		out = append(out, ServerLoad{
			Name:     nodeLabel(id),
			Region:   srv.Region(),
			Load:     a.Load(id),
			MaxLoad:  d.pop.MaxLoad(),
			Rho:      rho,
			QWait:    queueing.Wait(rho),
			Deposits: srv.Stats().Get("deposits_local"),
		})
	}
	return out
}

// migrateToSlot re-homes one user's mailbox service onto slot to — the
// §3.1.4 handover, ordered so no message can strand:
//
//  1. Re-register: swap the directory to a fresh list led by the target
//     whose backups come from OUTSIDE the old list. From this instant every
//     transfer still in the network addressed under the old placement is
//     misplaced on arrival and re-routes to the new list (the servers'
//     deposit-time redirect).
//  2. Drain: empty the old mailboxes server-side. Both steps run inside the
//     driver with no simulator event in between, so nothing can land on an
//     old server after its drain.
//
// Draining first (through the agent's walk) and swapping after — the naive
// order — leaves a window where an in-flight transfer lands on an old server
// the §3.1.2c walk will never revisit, because the walk stops at the first
// live stable server: the new primary.
//
// The migration is refused — not deferred, the next tick retries naturally —
// while any involved server is down or the user's walk still owes visits to
// recovered servers, because a drain under those conditions cannot prove the
// old mailboxes are empty.
func (d *SimDriver) migrateToSlot(u, from, to, tick int) MigrationResult {
	res := MigrationResult{User: u}
	a := d.agents[u]
	if a == nil {
		return res
	}
	toNode := d.slotNode(to)
	if !d.net.IsUp(toNode) {
		return res
	}
	old := a.Authority()
	for _, sv := range old {
		if !d.net.IsUp(sv) {
			return res
		}
	}
	if len(a.PreviouslyUnavailable()) > 0 {
		return res
	}
	newList := d.migrationList(to, old)
	name := a.User()
	r := d.userHost(u) / d.pop.HostsPerRegion
	if err := d.dirs[r].SetAuthority(name, newList); err != nil {
		return res
	}
	var drainedIDs []mail.MessageID
	for _, sv := range old {
		srv := d.fab.Lookup(sv)
		if srv == nil {
			continue
		}
		// Drain with the agent's dedup set: straggler copies (re-routed
		// retries of mail the user already has) are removed but neither
		// stamped nor credited.
		for _, m := range srv.DrainMailbox(name, a.Seen) {
			drainedIDs = append(drainedIDs, m.ID)
		}
	}
	// The agent never saw the drain — seed its duplicate suppression, or a
	// later straggler of a drained message would deliver as fresh.
	res.Drained = a.NoteDelivered(drainedIDs)
	d.noteRetrieved(u, len(res.Drained)) // drained mail is traffic too
	if err := a.SetAuthority(newList); err != nil {
		// Roll the directory back; the drained mail re-deposits nowhere, but
		// the engine ledger is credited by the caller either way.
		_ = d.dirs[r].SetAuthority(name, old)
		return res
	}
	d.moved(u, from, to, tick, len(res.Drained))
	res.Moved = true
	return res
}

// migrationList builds the §3.1.4 re-registration list: the target first,
// then backups drawn from the target's region EXCLUDING every old server, so
// in-flight transfers addressed under the old placement are recognizably
// misplaced wherever they land. In a region too small to avoid the old
// servers the list may be shorter than AuthorityLen — correctness over
// redundancy for the (rare) migrated user.
func (d *SimDriver) migrationList(to int, old []graph.NodeID) []graph.NodeID {
	list := []graph.NodeID{d.slotNode(to)}
	spr := d.pop.ServersPerRegion
	for i := 1; i < spr && len(list) < d.pop.AuthorityLen; i++ {
		id := d.slotNode(to/spr*spr + (to%spr+i)%spr)
		if !slices.Contains(old, id) && d.net.IsUp(id) {
			list = append(list, id)
		}
	}
	return list
}

// AddServer wires region r's first node without a server — a spare, or one
// RemoveServer freed — into service (§3.1.3c, core.Fabric.AddServer). Returns
// the new server's label.
func (d *SimDriver) AddServer(r int) (string, error) {
	if r < 0 || r >= d.pop.Regions {
		return "", fmt.Errorf("loadgen: no region %d", r)
	}
	slots := d.pop.ServersPerRegion + d.cfg.SpareServersPerRegion
	for j := 0; j < slots; j++ {
		if id := serverID(r*slots + j); d.fab.Lookup(id) == nil {
			return nodeLabel(id), d.fab.AddServer(id, d.pop.RegionName(r), d.pop.MaxLoad())
		}
	}
	return "", errors.New("loadgen: region has no spare server node")
}

// RemoveServer deletes a server (§3.1.3c, core.Fabric.RemoveServer), which
// leaves its node free for a later AddServer.
func (d *SimDriver) RemoveServer(label string) error {
	id, ok := d.nodes[label]
	if !ok {
		return fmt.Errorf("loadgen: no server %q", label)
	}
	return d.fab.RemoveServer(id)
}

// MigrateUser moves user u to another global host (§3.1.4,
// core.Fabric.Move): the user is renamed to the destination, registered there
// and deleted at the old host, with a redirect left for senders still using
// the old name. Returns the IDs drained before the handover so the caller can
// credit them to the retrieval ledger.
func (d *SimDriver) MigrateUser(u, newHost int) (drained []mail.MessageID, err error) {
	if newHost < 0 || newHost >= d.pop.TotalHosts() {
		return nil, fmt.Errorf("loadgen: no host %d", newHost)
	}
	a, err := d.ensure(u)
	if err != nil {
		return nil, err
	}
	oldPrimary := a.Authority()[0]
	newName := a.User().Rename(d.pop.RegionName(newHost/d.pop.HostsPerRegion), token(hostTokens, "h", newHost))
	moved, got, err := d.fab.Move(a, hostID(d.userHost(u)), hostID(newHost), newName)
	for _, m := range got {
		drained = append(drained, m.ID)
	}
	if err != nil {
		return drained, err
	}
	d.agents[u], d.hostIdx[u] = moved, newHost
	// The user is back on their host's list at the destination.
	d.rebook(u, oldPrimary, moved.Authority()[0])
	delete(d.rehomed, u)
	return drained, nil
}
