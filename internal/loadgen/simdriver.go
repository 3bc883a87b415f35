package loadgen

import (
	"errors"
	"fmt"
	"path/filepath"
	"sort"

	"github.com/largemail/largemail/internal/assign"
	"github.com/largemail/largemail/internal/client"
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
	// Tick is the virtual length of one schedule tick (default 10 units).
	Tick sim.Time
	// SpareServersPerRegion adds unwired server nodes to each region's
	// topology so AddServer reconfigurations have hardware to claim
	// (default 0).
	SpareServersPerRegion int
	// Retention is each server's mailbox clean-up policy (zero keeps all).
	Retention mail.Retention
	// BatchSize enables relay batching on every server: transfers to a
	// common destination coalesce into TransferBatch envelopes of up to this
	// many items (≤1 keeps the classic single-transfer path).
	BatchSize int
	// FlushInterval bounds how long a staged batch below the size watermark
	// may wait (default 2 sim units; only meaningful with BatchSize > 1).
	FlushInterval sim.Time
	// StoreShards overrides each server's mailbox-store shard count
	// (0 = mailstore.DefaultShards).
	StoreShards int
	// RetryTimeout overrides how long a server waits for a transfer (or
	// batch) ack before retrying (0 = server default). Large topologies
	// need this above their ack round-trip, or every distant transfer
	// retries — and every distant batch splits — spuriously.
	RetryTimeout sim.Time
	// DataDir, when set, makes every server's mailbox store durable: server
	// gs journals to DataDir/S<gs>, and the fault surface offers KillTargets
	// so a schedule may destroy in-memory state and restart from disk.
	DataDir string
	// Fsync is the WAL fsync policy when DataDir is set.
	Fsync mailstore.FsyncMode

	// Policy selects the placement policy ("static", "jsq", "rebalance").
	// Empty keeps the driver's historical hard-wired path — byte-identical
	// behavior, no gauges, no policy object at all. "static" routes the same
	// §3.1.1 lists through the placement.Policy seam (pinned equivalent).
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
	// MaxMigrationsPerTick / HysteresisBand tune the rebalancer (zero =
	// placement defaults: 32 moves/tick, ±25% band).
	MaxMigrationsPerTick int
	HysteresisBand       float64
}

// SimDriver drives the discrete-event transport: it builds its own regional
// topology (host spokes, intra-region server ring, inter-region ring), runs
// the §3.1.1 assignment per region to derive authority lists and predicted
// utilization, and materializes directories and agents lazily as the
// workload touches users — core.NewSyntax creates every agent eagerly,
// which a million-user population cannot afford.
type SimDriver struct {
	simWorld
	cfg SimConfig

	regionMap *server.RegionMap
	dirs      []*server.Directory  // per region
	assigns   []*assign.Assignment // per region

	servers map[graph.NodeID]*server.Server
	active  []graph.NodeID                  // wired servers, sorted
	spares  [][]graph.NodeID                // per region, unwired spare nodes
	lists   map[graph.NodeID][]graph.NodeID // per-host authority lists, current

	hosts   map[graph.NodeID]*client.Host
	agents  map[int]*client.Agent
	lookup  client.Directory   // d.servers[id], bound once and shared by every agent
	toNames []names.Name       // Submit's recipient names; server.accept copies them
	nameOf  map[int]names.Name // overrides for migrated users
	hostIdx map[int]int        // overrides for migrated users' host index

	// placer is the placement-policy loop (zero when cfg.Policy == "": the
	// legacy hard-wired path, untouched).
	placer
	staticPol *placement.Static // base reference, for cache invalidation
	ticks     int               // schedule ticks stepped so far (policy mode)
}

// NewSimDriver builds the simulated world for a population.
func NewSimDriver(cfg SimConfig) (*SimDriver, error) {
	cfg.Pop = cfg.Pop.withDefaults()
	if cfg.Policy != "" {
		if _, err := placement.ParseName(cfg.Policy); err != nil {
			return nil, err
		}
	}
	p := cfg.Pop
	d := &SimDriver{
		simWorld:  newSimWorld(cfg.Seed, p, cfg.Tick, cfg.SpareServersPerRegion),
		cfg:       cfg,
		regionMap: server.NewRegionMap(),
		servers:   make(map[graph.NodeID]*server.Server),
		lists:     make(map[graph.NodeID][]graph.NodeID),
		hosts:     make(map[graph.NodeID]*client.Host),
		agents:    make(map[int]*client.Agent),
		nameOf:    make(map[int]names.Name),
		hostIdx:   make(map[int]int),
	}
	d.spares = make([][]graph.NodeID, p.Regions)
	slots := p.ServersPerRegion + cfg.SpareServersPerRegion
	for r := 0; r < p.Regions; r++ {
		for j := p.ServersPerRegion; j < slots; j++ {
			d.spares[r] = append(d.spares[r], serverID(r*slots+j))
		}
	}
	d.lookup = func(id graph.NodeID) *server.Server { return d.servers[id] }

	// Per-region assignment: balance user counts, then derive authority
	// lists and per-server predicted utilization.
	commW, procW, procTime := assign.PaperWeights()
	capacity := p.MaxLoad()
	for r := 0; r < p.Regions; r++ {
		hosts := d.regionHosts(r)
		servers := d.regionServers(r)
		users := make(map[graph.NodeID]int, len(hosts))
		for i, h := range hosts {
			users[h] = p.UsersOnHost(r*p.HostsPerRegion + i)
		}
		maxLoad := make(map[graph.NodeID]int, len(servers))
		for _, s := range servers {
			maxLoad[s] = capacity
		}
		a, err := assign.New(assign.Config{
			Topology: d.topo,
			Hosts:    hosts, Servers: servers,
			Users: users, MaxLoad: maxLoad,
			ProcTime: procTime, CommW: commW, ProcW: procW,
		})
		if err != nil {
			return nil, fmt.Errorf("loadgen: region %d: %w", r, err)
		}
		a.Run()
		d.assigns = append(d.assigns, a)

		dir := server.NewDirectory(p.RegionName(r))
		dir.Instrument(d.reg) // rescache_hits/rescache_misses in Snapshot
		d.dirs = append(d.dirs, dir)
		for _, sv := range servers {
			if err := d.startServer(sv, r); err != nil {
				return nil, err
			}
		}
		for h, list := range a.AuthorityLists(p.AuthorityLen) {
			d.lists[h] = list
		}
		for _, h := range hosts {
			host, err := client.NewHost(d.net, h)
			if err != nil {
				return nil, err
			}
			d.hosts[h] = host
		}
	}
	sort.Slice(d.active, func(i, j int) bool { return d.active[i] < d.active[j] })
	if cfg.Policy != "" {
		if err := d.initPolicy(); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// startServer starts the server process of node id in region r and puts it in
// service; the caller keeps d.active sorted.
func (d *SimDriver) startServer(id graph.NodeID, r int) error {
	srv, err := server.New(server.Config{
		ID: id, Region: d.pop.RegionName(r), Net: d.net,
		Dir: d.dirs[r], Regions: d.regionMap,
		Retention: d.cfg.Retention, Trace: d.trace,
		BatchSize: d.cfg.BatchSize, FlushInterval: d.cfg.FlushInterval,
		StoreShards: d.cfg.StoreShards, RetryTimeout: d.cfg.RetryTimeout,
		DataDir: d.serverDataDir(id), Fsync: d.cfg.Fsync,
		PlacementReroute: d.onlinePolicy(),
		SpreadRelay:      d.onlinePolicy(),
	})
	if err != nil {
		return err
	}
	d.servers[id] = srv
	d.active = append(d.active, id)
	return nil
}

// onlinePolicy reports whether the configured policy can change a user's
// placement after registration — the modes that need deposit-time re-routing
// on the servers.
func (d *SimDriver) onlinePolicy() bool {
	return d.cfg.Policy == placement.NameJSQ || d.cfg.Policy == placement.NameRebalance
}

// initPolicy builds the configured placement policy over the driver's
// §3.1.1 assignments. The policy world indexes the wired fleet only: servers
// added from the spare pool later keep working but stay outside JSQ sampling
// and rebalancing.
func (d *SimDriver) initPolicy() error {
	world := d.pop.world()
	static, err := placement.NewStatic(placement.StaticConfig{
		World:    world,
		Assigns:  d.assigns,
		HostNode: hostID,
		SlotOf:   d.nodeSlot,
	})
	if err != nil {
		return err
	}
	d.staticPol = static
	d.placer.start(d, d.pop, d.cfg.Policy, static, placement.Config{
		World: world, Seed: d.cfg.Seed, D: d.cfg.JSQD,
		Gauges: d.reg, Label: d.slotLabel,
		MaxMigrationsPerTick: d.cfg.MaxMigrationsPerTick,
		HysteresisBand:       d.cfg.HysteresisBand,
	}, d.cfg.ServiceRate)
	return nil
}

// slotNode maps a placement slot (region-major over wired servers) to its
// node ID; nodeSlot is the inverse (ok=false for spare-pool nodes, which are
// outside the policy world). slotLabel names a slot's instruments with the
// driver's raw server label, which counts spare slots — placement's default
// "S<slot>" would collide with a different server whenever spares exist.
func (d *SimDriver) slotNode(slot int) graph.NodeID {
	slots := d.pop.ServersPerRegion + d.cfg.SpareServersPerRegion
	return serverID(slot/d.pop.ServersPerRegion*slots + slot%d.pop.ServersPerRegion)
}

func (d *SimDriver) nodeSlot(id graph.NodeID) (int, bool) {
	raw := int(id - simServerBase - 1)
	slots := d.pop.ServersPerRegion + d.cfg.SpareServersPerRegion
	r, j := raw/slots, raw%slots
	if r < 0 || r >= d.pop.Regions || j >= d.pop.ServersPerRegion {
		return 0, false
	}
	return r*d.pop.ServersPerRegion + j, true
}

func (d *SimDriver) slotLabel(slot int) string {
	return serverLabel(int(d.slotNode(slot) - simServerBase - 1))
}

// serverDataDir returns the durable store directory for a server node, or
// "" (memory store) when the driver is not configured for durability.
func (d *SimDriver) serverDataDir(id graph.NodeID) string {
	if d.cfg.DataDir == "" {
		return ""
	}
	return filepath.Join(d.cfg.DataDir, serverLabel(int(id-simServerBase-1)))
}

// regionHosts returns region r's host node IDs in index order.
func (d *SimDriver) regionHosts(r int) []graph.NodeID {
	out := make([]graph.NodeID, d.pop.HostsPerRegion)
	for i := range out {
		out[i] = hostID(r*d.pop.HostsPerRegion + i)
	}
	return out
}

// regionServers returns region r's wired (non-spare) server node IDs.
func (d *SimDriver) regionServers(r int) []graph.NodeID {
	slots := d.pop.ServersPerRegion + d.cfg.SpareServersPerRegion
	out := make([]graph.NodeID, d.pop.ServersPerRegion)
	for j := range out {
		out[j] = serverID(r*slots + j)
	}
	return out
}

// UserName returns the user's current name (migrations rename).
func (d *SimDriver) UserName(u int) names.Name {
	if n, ok := d.nameOf[u]; ok {
		return n
	}
	return d.pop.Name(u)
}

// userHost returns the user's current global host index (migrations move).
func (d *SimDriver) userHost(u int) int {
	if gh, ok := d.hostIdx[u]; ok {
		return gh
	}
	return d.pop.HostOf(u)
}

// ensure materializes user u: a directory entry carrying the host's
// authority list (recipients must resolve before mail can route to them)
// and a lazily created agent.
func (d *SimDriver) ensure(u int) (*client.Agent, error) {
	if a, ok := d.agents[u]; ok {
		return a, nil
	}
	name := d.UserName(u)
	gh := d.userHost(u)
	h := hostID(gh)
	list := d.lists[h]
	if d.policy != nil {
		if slots := d.place(u, gh); len(slots) > 0 {
			static := list
			list = make([]graph.NodeID, len(slots))
			offStatic := len(slots) != len(static)
			for i, s := range slots {
				list[i] = d.slotNode(s)
				if !offStatic && list[i] != static[i] {
					offStatic = true
				}
			}
			if offStatic {
				// A load-aware placement (JSQ sample, admission diversion)
				// is a rehoming the moment it happens: refreshRegion must
				// not snap the user back to the static list on the next
				// reconfiguration — mail already sits on the chosen primary.
				d.rehomed[u] = d.ticks
			}
		}
	}
	if len(list) == 0 {
		return nil, fmt.Errorf("loadgen: host %d has no authority list", h)
	}
	if err := d.dirs[gh/d.pop.HostsPerRegion].SetAuthority(name, list); err != nil {
		return nil, err
	}
	a, err := client.NewAgent(name, d.hosts[h], d.lookup, list)
	if err != nil {
		return nil, err
	}
	d.agents[u] = a
	return a, nil
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
		id, err := d.servers[sv].Submit(server.SubmitRequest{
			From: fa.User(), To: d.toNames, Subject: subject, Body: body,
		})
		if err != nil {
			return "", err
		}
		return id.String(), nil
	}
	return "", fmt.Errorf("loadgen: no live authority server for %v", fa.User())
}

// Retrieve implements Driver.
func (d *SimDriver) Retrieve(u int) RetrieveResult {
	a, err := d.ensure(u)
	if err != nil {
		return RetrieveResult{}
	}
	before := a.Stats()
	msgs := a.TakeMail() // only the IDs leave here; an agent lives as long as the run does
	after := a.Stats()
	if d.policy != nil {
		d.noteRetrieved(u, len(msgs))
	}
	ids := make([]string, len(msgs))
	for i, m := range msgs {
		ids[i] = m.ID.String()
	}
	a.DropNotifications()
	return RetrieveResult{
		IDs:          ids,
		Polls:        after.Polls - before.Polls,
		Duplicates:   after.Duplicates - before.Duplicates,
		LastChecking: int64(a.LastCheckingTime()),
	}
}

// Step implements Driver. With a placement policy configured, every tick
// also refreshes the per-server gauges the policies observe and, when
// ServiceRate closes the loop, the congestion delays.
func (d *SimDriver) Step(n int) {
	if d.policy == nil {
		d.sched.RunFor(sim.Time(n) * d.tick)
		return
	}
	for i := 0; i < n; i++ {
		d.sched.RunFor(d.tick)
		d.ticks++
		d.refresh(1)
	}
}

// deposits implements placedTransport. It also publishes "<label>.qdepth"
// (deposits − retrievals: mail buffered awaiting pickup), which the live
// servers keep inline.
func (d *SimDriver) deposits(slot int, label string) (int64, bool) {
	srv, ok := d.servers[d.slotNode(slot)]
	if !ok {
		return 0, false // removed from service
	}
	dep := srv.Stats().Get("deposits_local")
	d.reg.Gauge(label + ".qdepth").Set(dep - srv.Stats().Get("retrieved_msgs"))
	return dep, true
}

// slow implements placedTransport: queueing delay — §2.2's "minimize the
// mail delay" in observable form — is extra network delay to the server.
func (d *SimDriver) slow(slot int, ticks float64) {
	d.net.SetExtraDelay(d.slotNode(slot), sim.Time(ticks*float64(d.tick)))
}

// Snapshot implements Driver: the tracer-fed latency histograms plus the
// network's and servers' counters (prefixed net_/srv_).
func (d *SimDriver) Snapshot() obs.Snapshot {
	snap := netSnapshot(d.reg, d.net)
	for _, id := range d.active {
		for k, v := range d.servers[id].Stats().Counters() {
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
	tgt.Servers = make(map[string]faults.KillRestarter, len(d.active))
	for _, id := range d.active {
		tgt.Servers[serverLabel(int(id-simServerBase-1))] = d.servers[id]
	}
	return tgt
}

// FaultSurface implements Driver: Population.faultSurface's drop targets and
// ring links, plus crash/latency candidates — every wired server; crashes are
// covered by transfer retries plus GetMail's LastStartTime walk, and injected
// latency may double-send a transfer, which mailbox dedup absorbs.
func (d *SimDriver) FaultSurface() faults.Spec {
	spec := d.pop.faultSurface(d.cfg.SpareServersPerRegion)
	for _, id := range d.active {
		spec.Servers = append(spec.Servers, serverLabel(int(id-simServerBase-1)))
	}
	// Kill-restart only survives a durable store; a memory-only driver must
	// not offer targets (Compile would schedule guaranteed data loss).
	if d.cfg.DataDir != "" {
		spec.KillTargets = append([]string(nil), spec.Servers...)
	}
	return spec
}

// DurabilityStats sums the cumulative WAL write-path counters across every
// active server, including stores replaced by kill-restart cycles; ok is
// false on a memory-only driver.
func (d *SimDriver) DurabilityStats() (mailstore.WALStats, bool) {
	var sum mailstore.WALStats
	any := false
	for _, id := range d.active {
		st, ok := d.servers[id].WALStats()
		if !ok {
			continue
		}
		any = true
		sum.Add(st)
	}
	return sum, any
}

// Close syncs and closes every server's durable store (no-op for memory
// stores). The simulated network needs no teardown.
func (d *SimDriver) Close() error {
	var first error
	for _, id := range d.active {
		if err := d.servers[id].Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// ServerLoads implements Driver: the per-region assignment's predicted
// utilization next to the deposits each server actually served.
func (d *SimDriver) ServerLoads() []ServerLoad {
	var out []ServerLoad
	for r, a := range d.assigns {
		loads := a.Loads()
		ids := make([]graph.NodeID, 0, len(loads))
		for id := range loads {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			rho := a.Utilization(id)
			sl := ServerLoad{
				Name:    serverLabel(int(id - simServerBase - 1)),
				Region:  d.pop.RegionName(r),
				Load:    loads[id],
				MaxLoad: d.pop.MaxLoad(),
				Rho:     rho,
				QWait:   queueing.Wait(rho),
			}
			if srv, ok := d.servers[id]; ok {
				sl.Deposits = srv.Stats().Get("deposits_local")
			}
			out = append(out, sl)
		}
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
//     deposit-time redirect, Config.PlacementReroute).
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
	name := d.UserName(u)
	r := d.regionIndex(name.Region)
	if err := d.dirs[r].SetAuthority(name, newList); err != nil {
		return res
	}
	var drainedIDs []mail.MessageID
	for _, sv := range old {
		srv, ok := d.servers[sv]
		if !ok {
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
	for _, id := range a.NoteDelivered(drainedIDs) {
		res.Drained = append(res.Drained, id.String())
	}
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
	oldSet := make(map[graph.NodeID]bool, len(old))
	for _, sv := range old {
		oldSet[sv] = true
	}
	toNode := d.slotNode(to)
	list := []graph.NodeID{toNode}
	spr := d.pop.ServersPerRegion
	r := to / spr
	for i := 1; i < spr && len(list) < d.pop.AuthorityLen; i++ {
		slot := r*spr + (to%spr+i)%spr
		id := d.slotNode(slot)
		if id == toNode || oldSet[id] || !d.net.IsUp(id) {
			continue
		}
		list = append(list, id)
	}
	return list
}

// refreshRegion pushes region r's recomputed authority lists into the
// per-host cache, the directory entries of every materialized user, and
// their live agents — the §3.1.3 reconfiguration broadcast.
func (d *SimDriver) refreshRegion(r int) error {
	if d.staticPol != nil {
		d.staticPol.Invalidate(r) // the assignment behind the policy changed
	}
	lists := d.assigns[r].AuthorityLists(d.pop.AuthorityLen)
	for h, list := range lists {
		d.lists[h] = list
	}
	inService := make(map[graph.NodeID]bool, len(lists))
	for id := range d.assigns[r].Loads() {
		inService[id] = true
	}
	for u, a := range d.agents {
		name := d.UserName(u)
		if name.Region != d.pop.RegionName(r) {
			continue
		}
		list := lists[hostID(d.userHost(u))]
		if _, moved := d.rehomed[u]; moved {
			// A rebalanced user keeps the list the policy gave them; the
			// reconfiguration only strips servers leaving service. If that
			// empties the list, fall back to the recomputed static one.
			kept := make([]graph.NodeID, 0, len(a.Authority()))
			for _, sv := range a.Authority() {
				if inService[sv] {
					kept = append(kept, sv)
				}
			}
			if len(kept) > 0 {
				list = kept
			}
		}
		if len(list) == 0 {
			continue
		}
		if err := d.dirs[r].SetAuthority(name, list); err != nil {
			return err
		}
		if err := a.SetAuthority(list); err != nil {
			return err
		}
	}
	return nil
}

// AddServer wires one of region r's spare server nodes into service
// (§3.1.3c): the server process starts, the assignment rebalances onto it,
// and every materialized user's authority list refreshes. Returns the new
// server's label.
func (d *SimDriver) AddServer(r int) (string, error) {
	if r < 0 || r >= d.pop.Regions {
		return "", fmt.Errorf("loadgen: no region %d", r)
	}
	if len(d.spares[r]) == 0 {
		return "", errors.New("loadgen: region has no spare server node")
	}
	var id graph.NodeID
	id, d.spares[r] = d.spares[r][0], d.spares[r][1:]
	if err := d.startServer(id, r); err != nil {
		return "", err
	}
	sort.Slice(d.active, func(i, j int) bool { return d.active[i] < d.active[j] })
	if _, err := d.assigns[r].AddServer(id, d.pop.MaxLoad()); err != nil {
		return "", err
	}
	if err := d.refreshRegion(r); err != nil {
		return "", err
	}
	return serverLabel(int(id - simServerBase - 1)), nil
}

// RemoveServer deletes a server (§3.1.3c): the assignment rebalances its
// users away, authority lists refresh so nothing new routes to it, then the
// server drains — in-flight traffic settles, buffered mail evacuates to the
// recipients' remaining authority servers — and the node deregisters. The
// freed node returns to the region's spare pool.
func (d *SimDriver) RemoveServer(label string) error {
	var id graph.NodeID
	found := false
	for _, sv := range d.active {
		if serverLabel(int(sv-simServerBase-1)) == label {
			id, found = sv, true
			break
		}
	}
	if !found {
		return fmt.Errorf("loadgen: no active server %q", label)
	}
	srv := d.servers[id]
	r := d.regionIndex(srv.Region())
	if len(d.regionMap.Servers(srv.Region())) <= 1 {
		return errors.New("loadgen: cannot remove a region's last server")
	}
	if _, err := d.assigns[r].RemoveServer(id); err != nil {
		return err
	}
	if err := d.refreshRegion(r); err != nil {
		return err
	}
	d.regionMap.RemoveServer(srv.Region(), id)
	// Drain: let in-flight transfers settle, evacuate buffered mail, and
	// repeat until a settle round leaves the server empty — a transfer
	// already headed here may deposit after the first evacuation.
	for i := 0; i < 16; i++ {
		d.sched.Run()
		if srv.Evacuate() == 0 && srv.PendingTransfers() == 0 {
			break
		}
	}
	d.net.Deregister(id)
	delete(d.servers, id)
	for i, sv := range d.active {
		if sv == id {
			d.active = append(d.active[:i], d.active[i+1:]...)
			break
		}
	}
	d.spares[r] = append(d.spares[r], id)
	return nil
}

func (d *SimDriver) regionIndex(region string) int {
	for r := 0; r < d.pop.Regions; r++ {
		if d.pop.RegionName(r) == region {
			return r
		}
	}
	return -1
}

// MigrateUser moves user u to another global host, following §3.1.4: drain
// mail under the old name, register the renamed user at the destination
// (rebalancing it in), delete the old registration, and leave a redirect
// for in-flight senders still using the old name. Returns the IDs drained
// pre-migration so the caller can credit them to the retrieval ledger.
func (d *SimDriver) MigrateUser(u, newHost int) (drained []string, err error) {
	if newHost < 0 || newHost >= d.pop.TotalHosts() {
		return nil, fmt.Errorf("loadgen: no host %d", newHost)
	}
	a, err := d.ensure(u)
	if err != nil {
		return nil, err
	}
	// Quiesce in-flight deliveries, then drain: a transfer addressed to the
	// old name that lands after the handover would strand in a mailbox the
	// renamed user no longer polls.
	d.sched.Run()
	for _, m := range a.GetMail() {
		drained = append(drained, m.ID.String())
	}

	old := d.UserName(u)
	oldHost := d.userHost(u)
	oldR := oldHost / d.pop.HostsPerRegion
	newR := newHost / d.pop.HostsPerRegion
	newName := old.Rename(d.pop.RegionName(newR), fmt.Sprintf("h%d", newHost))

	if _, err := d.assigns[newR].AddUsers(hostID(newHost), 1); err != nil {
		return drained, err
	}
	list := d.assigns[newR].AuthorityLists(d.pop.AuthorityLen)[hostID(newHost)]
	if err := d.dirs[newR].SetAuthority(newName, list); err != nil {
		return drained, err
	}
	na, err := client.NewAgent(newName, d.hosts[hostID(newHost)], d.lookup, list)
	if err != nil {
		return drained, err
	}

	if _, err := d.assigns[oldR].RemoveUsers(hostID(oldHost), 1); err != nil {
		return drained, err
	}
	if err := d.dirs[oldR].SetAuthority(old, nil); err != nil {
		return drained, err
	}
	if err := d.dirs[oldR].SetRedirect(old, newName); err != nil {
		return drained, err
	}
	d.agents[u] = na
	d.nameOf[u] = newName
	d.hostIdx[u] = newHost
	if d.policy != nil {
		// AddUsers/RemoveUsers changed both regions' assignments, and the
		// migrated user is back on their static placement at the new host.
		d.staticPol.Invalidate(oldR)
		d.staticPol.Invalidate(newR)
		for slot := range d.bySlot {
			delete(d.bySlot[slot], u)
		}
		if s, ok := d.nodeSlot(list[0]); ok {
			d.bySlot[s][u] = struct{}{}
		}
		delete(d.rehomed, u)
	}
	return drained, nil
}
