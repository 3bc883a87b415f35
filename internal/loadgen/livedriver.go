package loadgen

import (
	"context"
	"fmt"
	"sort"
	"time"

	"github.com/largemail/largemail/internal/faults"
	"github.com/largemail/largemail/internal/livenet"
	"github.com/largemail/largemail/internal/mail/mailstore"
	"github.com/largemail/largemail/internal/names"
	"github.com/largemail/largemail/internal/obs"
	"github.com/largemail/largemail/internal/placement"
	"github.com/largemail/largemail/internal/queueing"
)

// LiveConfig parameterizes a LiveDriver.
type LiveConfig struct {
	Pop Population
	// Tick is the wall-clock duration of one schedule tick (default 2ms).
	Tick time.Duration
	// Spool configures the redelivery spool; the zero value takes the
	// spool's own defaults. The spool is normally enabled: it is what makes
	// a live Submit an all-or-nothing commit (only a recipient with no
	// authority list at all can fail), which is the commit-point contract
	// the no-loss auditor depends on.
	Spool livenet.SpoolConfig
	// NoSpool disables the redelivery spool entirely. Without it a Submit
	// commits only the recipients whose deposit succeeded, so a multi-
	// recipient Submit can partially commit while reporting an error —
	// drive no-spool runs with Workload{MaxRecipients: 1} to keep the
	// commit all-or-nothing. This is how the durability soak proves the
	// store alone (not spool redelivery) carries mail across kill-restarts.
	NoSpool bool
	// SubmitTimeout bounds each Submit through the cluster's context API
	// (0 = no deadline). Recipients already committed when the deadline
	// fires stay committed; the rest report mailerr.ErrTimeout.
	SubmitTimeout time.Duration
	// StoreShards overrides each server's mailbox-store shard count
	// (0 = mailstore.DefaultShards).
	StoreShards int
	// DataDir, when set, makes every server's mailbox store durable
	// (server NAME journals to DataDir/NAME) and adds KillTargets to the
	// fault surface.
	DataDir string
	// Fsync is the WAL fsync policy when DataDir is set.
	Fsync mailstore.FsyncMode

	// Policy selects the placement policy ("static", "jsq", "rebalance").
	// Empty keeps the historical hard-wired round-robin path untouched;
	// "static" routes the same round-robin lists through the placement seam.
	Policy string
	// JSQD is JSQ(d)'s sample width (0 = d=2).
	JSQD int
	// ServiceRate is each server's service capacity in deposits per tick;
	// > 0 publishes arrival-rate ρ on the "<name>.rho" gauges and slows
	// servers pushed past ρ=1 (injected latency), mirroring the sim driver's
	// congestion loop on wall-clock time. Zero publishes placement-share ρ
	// and leaves latency alone.
	ServiceRate float64
	// MaxMigrationsPerTick / HysteresisBand tune the rebalancer (zero =
	// placement defaults).
	MaxMigrationsPerTick int
	HysteresisBand       float64
}

// LiveDriver drives the livenet transport: goroutine servers, wall-clock
// time, spool-backed redelivery. Server gs of region r is named
// "S<r·ServersPerRegion+s>"; user authority lists are AuthorityLen servers
// of the user's region starting at slot (host mod ServersPerRegion), so
// primary load spreads evenly without running the full §3.1.1 engine — the
// predicted loads in ServerLoads use that same round-robin placement.
type LiveDriver struct {
	cfg     LiveConfig
	pop     Population
	cluster *livenet.Cluster

	agents    map[int]*livenet.Agent
	prevPolls map[int]int

	// Placement-policy state (nil/empty when cfg.Policy == "").
	policy   placement.Policy
	world    placement.World
	bySlot   []map[int]struct{} // per slot: materialized users homed there
	rehomed  map[int]int        // users moved off their base placement → tick of the move
	recv     map[int]int64      // per user: copies retrieved (the traffic signal migrations rank by)
	recvHost map[int]int64      // per host: copies retrieved by its users (locates workload skew)
	prevDep  []int64
	arrEWMA  []float64
}

// NewLiveDriver builds the cluster and starts one goroutine per server.
// Call Close when done.
func NewLiveDriver(cfg LiveConfig) (*LiveDriver, error) {
	cfg.Pop = cfg.Pop.withDefaults()
	if cfg.Tick <= 0 {
		cfg.Tick = 2 * time.Millisecond
	}
	if cfg.Policy != "" {
		if _, err := placement.ParseName(cfg.Policy); err != nil {
			return nil, err
		}
	}
	d := &LiveDriver{
		cfg: cfg,
		pop: cfg.Pop,
		cluster: livenet.NewClusterWith(livenet.ClusterConfig{
			StoreShards: cfg.StoreShards,
			DataDir:     cfg.DataDir,
			Fsync:       cfg.Fsync,
		}),
		agents:    make(map[int]*livenet.Agent),
		prevPolls: make(map[int]int),
	}
	d.cluster.Tracer().KeepAll() // the engine's trace-gap audit reads every trace at the end
	for gs := 0; gs < d.pop.TotalServers(); gs++ {
		if _, err := d.cluster.AddServer(d.serverName(gs)); err != nil {
			d.cluster.Close()
			return nil, err
		}
	}
	if !cfg.NoSpool {
		if err := d.cluster.EnableSpool(cfg.Spool); err != nil {
			d.cluster.Close()
			return nil, err
		}
	}
	if cfg.Policy != "" {
		d.initPolicy()
	}
	return d, nil
}

// initPolicy builds the configured placement policy over the round-robin
// reference — the live transport's historical static placement. Slot gs IS
// server "S<gs>", so the placement default label convention applies as-is.
func (d *LiveDriver) initPolicy() {
	p := d.pop
	d.world = placement.World{
		Regions:          p.Regions,
		ServersPerRegion: p.ServersPerRegion,
		HostsPerRegion:   p.HostsPerRegion,
		AuthorityLen:     p.AuthorityLen,
	}
	base := placement.NewRoundRobin(d.world)
	pcfg := placement.Config{
		World: d.world, Seed: int64(p.Users), D: d.cfg.JSQD,
		Gauges:               d.cluster.Obs(),
		MaxMigrationsPerTick: d.cfg.MaxMigrationsPerTick,
		HysteresisBand:       d.cfg.HysteresisBand,
	}
	switch d.cfg.Policy {
	case placement.NameJSQ:
		d.policy = placement.NewJSQ(base, pcfg)
	case placement.NameRebalance:
		d.policy = placement.NewRebalancer(base, pcfg)
	default:
		d.policy = base
	}
	n := d.world.TotalServers()
	d.bySlot = make([]map[int]struct{}, n)
	for i := range d.bySlot {
		d.bySlot[i] = make(map[int]struct{})
	}
	d.prevDep = make([]int64, n)
	d.arrEWMA = make([]float64, n)
	d.rehomed = make(map[int]int)
	d.recv = make(map[int]int64)
	d.recvHost = make(map[int]int64)
	d.refreshGauges(1)
}

// Close stops the spool and every server goroutine.
func (d *LiveDriver) Close() { d.cluster.Close() }

// Cluster exposes the underlying cluster for tests.
func (d *LiveDriver) Cluster() *livenet.Cluster { return d.cluster }

func (d *LiveDriver) serverName(gs int) string { return fmt.Sprintf("S%d", gs) }

// authority returns user u's ordered authority list: AuthorityLen servers
// of u's region, starting at the slot the user's host maps to.
func (d *LiveDriver) authority(u int) []string {
	r := d.pop.RegionOf(u)
	start := d.pop.HostOf(u) % d.pop.ServersPerRegion
	out := make([]string, 0, d.pop.AuthorityLen)
	for i := 0; i < d.pop.AuthorityLen; i++ {
		s := (start + i) % d.pop.ServersPerRegion
		out = append(out, d.serverName(r*d.pop.ServersPerRegion+s))
	}
	return out
}

// ensure lazily registers user u in the directory and creates its agent.
func (d *LiveDriver) ensure(u int) (*livenet.Agent, names.Name, error) {
	name := d.pop.Name(u)
	if ag, ok := d.agents[u]; ok {
		return ag, name, nil
	}
	list := d.authority(u)
	if d.policy != nil {
		if slots := d.policy.Place(placement.User{Index: u, Host: d.pop.HostOf(u)}); len(slots) > 0 {
			list = make([]string, len(slots))
			for i, s := range slots {
				list[i] = d.serverName(s)
			}
			d.bySlot[slots[0]][u] = struct{}{}
		}
	}
	d.cluster.Directory().SetAuthority(name, list)
	ag, err := d.cluster.NewAgent(name)
	if err != nil {
		return nil, name, err
	}
	d.agents[u] = ag
	return ag, name, nil
}

// Population implements Driver.
func (d *LiveDriver) Population() Population { return d.pop }

// Submit implements Driver. With the spool enabled a nil error means every
// recipient copy is committed — deposited now or owed by the spool.
func (d *LiveDriver) Submit(from int, to []int, subject, body string) (string, error) {
	_, fromName, err := d.ensure(from)
	if err != nil {
		return "", err
	}
	rcpts := make([]names.Name, 0, len(to))
	for _, u := range to {
		_, name, err := d.ensure(u)
		if err != nil {
			return "", err
		}
		rcpts = append(rcpts, name)
	}
	ctx := context.Background()
	if d.cfg.SubmitTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d.cfg.SubmitTimeout)
		defer cancel()
	}
	id, err := d.cluster.SubmitContext(ctx, fromName, rcpts, subject, body)
	if err != nil {
		return "", err
	}
	return id.String(), nil
}

// Retrieve implements Driver.
func (d *LiveDriver) Retrieve(u int) RetrieveResult {
	ag, _, err := d.ensure(u)
	if err != nil {
		return RetrieveResult{}
	}
	got := ag.GetMail()
	if d.policy != nil {
		d.recv[u] += int64(len(got))
		d.recvHost[d.pop.HostOf(u)] += int64(len(got))
	}
	res := RetrieveResult{
		Polls:        ag.Polls() - d.prevPolls[u],
		LastChecking: ag.LastCheckingTime().UnixNano(),
	}
	d.prevPolls[u] = ag.Polls()
	for _, m := range got {
		res.IDs = append(res.IDs, m.ID.String())
	}
	return res
}

// Step implements Driver: one tick is a short wall-clock sleep. With a
// placement policy configured each Step also refreshes the per-server ρ and
// placed gauges (qdepth is maintained inline by the servers).
func (d *LiveDriver) Step(n int) {
	if n > 0 {
		time.Sleep(time.Duration(n) * d.cfg.Tick)
	}
	if d.policy != nil && n > 0 {
		d.refreshGauges(n)
	}
}

// refreshGauges publishes "<name>.rho" / "<name>.placed" for every server
// from the deposit counters, mirroring the sim driver's loop: arrival-rate
// EWMA over ServiceRate when the congestion model is on, placement share
// otherwise; overloaded servers get injected latency proportional to their
// overload (capped at 4 ticks).
func (d *LiveDriver) refreshGauges(ticks int) {
	reg := d.cluster.Obs()
	perServer := 0
	if d.pop.TotalServers() > 0 {
		perServer = d.pop.Users / d.pop.TotalServers()
	}
	maxLoad := perServer + perServer/4 + 4
	for slot := 0; slot < d.world.TotalServers(); slot++ {
		name := d.serverName(slot)
		dep := reg.Counter(name + ".deposits").Value()
		perTick := float64(dep-d.prevDep[slot]) / float64(ticks)
		d.arrEWMA[slot] = ewmaAlpha*perTick + (1-ewmaAlpha)*d.arrEWMA[slot]
		d.prevDep[slot] = dep
		var rho float64
		if d.cfg.ServiceRate > 0 {
			rho = d.arrEWMA[slot] / d.cfg.ServiceRate
		} else if maxLoad > 0 {
			rho = float64(len(d.bySlot[slot])) / float64(maxLoad)
		}
		fixed := int64(rho * placement.RhoScale)
		reg.Gauge(name + ".rho").Set(fixed)
		if peak := reg.Gauge(name + ".rho_peak"); fixed > peak.Value() {
			peak.Set(fixed)
		}
		reg.Gauge(name + ".placed").Set(int64(len(d.bySlot[slot])))
		if d.cfg.ServiceRate > 0 {
			if s, ok := d.cluster.Server(name); ok {
				var extra time.Duration
				if over := rho - 1; over > 0 {
					if over > 4 {
						over = 4
					}
					extra = time.Duration(over * float64(d.cfg.Tick))
				}
				s.SetLatency(extra)
			}
		}
	}
}

// RebalanceActive implements PlacementRebalancer.
func (d *LiveDriver) RebalanceActive() bool {
	return d.policy != nil && d.policy.Name() == placement.NameRebalance
}

// RebalanceTick implements PlacementRebalancer on the live transport. The
// §3.1.4 handover is only attempted in calm conditions — empty spool (a
// spooled entry is a deposit still in flight somewhere), every involved
// server up and reachable, no servers owed a recovery visit — because only
// then does a drain prove the old mailboxes empty; otherwise the user is
// left put and the next tick retries.
func (d *LiveDriver) RebalanceTick(tick int) []MigrationResult {
	if d.policy == nil {
		return nil
	}
	if d.cluster.SpoolDepth() > 0 {
		return nil
	}
	migs := d.policy.Rebalance(d.Snapshot())
	var out []MigrationResult
	for _, mg := range migs {
		users, weights, total := rankByHeat(d.liveUsersOnSlot(mg.From),
			d.recv, d.recvHost, d.pop.HostOf, d.pop.UsersOnHost)
		target := mg.Frac * total
		var shed float64
		moved := 0
		for i, u := range users {
			if moved >= mg.Count || (target > 0 && shed >= target) {
				break
			}
			if last, ok := d.rehomed[u]; ok && tick-last < migrationCooldown {
				continue // recently moved; let the load observation settle
			}
			res := d.migrateToSlot(u, mg.From, mg.To, tick)
			if res.Moved {
				moved++
				shed += weights[i]
			}
			if res.Moved || len(res.Drained) > 0 {
				out = append(out, res)
			}
		}
	}
	return out
}

func (d *LiveDriver) liveUsersOnSlot(slot int) []int {
	if slot < 0 || slot >= len(d.bySlot) {
		return nil
	}
	out := make([]int, 0, len(d.bySlot[slot]))
	for u := range d.bySlot[slot] {
		out = append(out, u)
	}
	sort.Ints(out)
	return out
}

// migrateToSlot re-homes one live user onto slot to: drain under the old
// list, then swap the directory entry to a list led by the target with the
// old servers kept as secondaries (the agent re-reads the directory on every
// GetMail, so the swap is the whole handover).
func (d *LiveDriver) migrateToSlot(u, from, to, tick int) MigrationResult {
	res := MigrationResult{User: u}
	ag := d.agents[u]
	if ag == nil {
		return res
	}
	name := d.pop.Name(u)
	toName := d.serverName(to)
	if s, ok := d.cluster.Server(toName); !ok || !s.Up() || !s.Reachable() {
		return res
	}
	old := d.cluster.Directory().Authority(name)
	for _, sv := range old {
		if s, ok := d.cluster.Server(sv); !ok || !s.Up() || !s.Reachable() {
			return res
		}
	}
	if len(ag.PreviouslyUnavailable()) > 0 {
		return res
	}
	for _, m := range ag.GetMail() {
		res.Drained = append(res.Drained, m.ID.String())
	}
	d.recv[u] += int64(len(res.Drained)) // drained mail is traffic too
	d.recvHost[d.pop.HostOf(u)] += int64(len(res.Drained))
	d.prevPolls[u] = ag.Polls() // the drain's polls are not the next sweep's
	if len(ag.PreviouslyUnavailable()) > 0 {
		return res // a server failed mid-drain; keep the user put
	}
	newList := make([]string, 0, len(old)+1)
	newList = append(newList, toName)
	for _, sv := range old {
		if sv != toName {
			newList = append(newList, sv)
		}
	}
	d.cluster.Directory().SetAuthority(name, newList)
	delete(d.bySlot[from], u)
	d.bySlot[to][u] = struct{}{}
	d.rehomed[u] = tick
	res.Moved = true
	d.cluster.Obs().Counter("migrations_total").Inc()
	d.cluster.Obs().Counter("migration_cost").Add(int64(len(res.Drained)))
	return res
}

// Settle implements Driver: wait for the redelivery spool to drain.
func (d *LiveDriver) Settle() {
	for i := 0; i < 500; i++ {
		if d.cluster.SpoolDepth() == 0 {
			return
		}
		time.Sleep(d.cfg.Tick)
	}
}

// Snapshot implements Driver.
func (d *LiveDriver) Snapshot() obs.Snapshot { return d.cluster.Snapshot() }

// Tracer implements Driver.
func (d *LiveDriver) Tracer() *obs.Tracer { return d.cluster.Tracer() }

// Injector implements Driver.
func (d *LiveDriver) Injector() faults.Injector {
	return faults.NewLiveTarget(d.cluster, d.cfg.Tick)
}

// FaultSurface implements Driver. On the live transport servers are safe
// drop targets (transient drops are retried on the same server, never
// failed over), and link faults resolve to server unreachability — which
// stamps LastStartTime on restore, so the GetMail walk recovers deposits
// that failed over past the partition.
func (d *LiveDriver) FaultSurface() faults.Spec {
	var sp faults.Spec
	sp.Servers = d.cluster.ServerNames()
	sp.DropTargets = append([]string(nil), sp.Servers...)
	for r := 0; r < d.pop.Regions; r++ {
		if d.pop.ServersPerRegion < 3 {
			continue // a 2-server region cannot spare a link
		}
		for s := 0; s < d.pop.ServersPerRegion; s++ {
			gs := r*d.pop.ServersPerRegion + s
			next := r*d.pop.ServersPerRegion + (s+1)%d.pop.ServersPerRegion
			sp.Links = append(sp.Links, [2]string{d.serverName(gs), d.serverName(next)})
		}
	}
	// Kill-restart only survives a durable store; a memory-only cluster
	// must not offer targets (Compile would schedule guaranteed data loss).
	if d.cluster.Durable() {
		sp.KillTargets = append([]string(nil), sp.Servers...)
	}
	return sp
}

// DurabilityStats sums the WAL write-path counters across the cluster's
// servers; ok is false on a memory-only cluster.
func (d *LiveDriver) DurabilityStats() (mailstore.WALStats, bool) {
	return d.cluster.DurabilityStats()
}

// ServerLoads implements Driver: predicted load from the round-robin
// placement (host gh's users' primary is slot gh mod ServersPerRegion),
// observed deposits from the per-server counters.
func (d *LiveDriver) ServerLoads() []ServerLoad {
	deposits := d.cluster.Obs().Counters()
	perServer := 0
	if d.pop.TotalServers() > 0 {
		perServer = d.pop.Users / d.pop.TotalServers()
	}
	maxLoad := perServer + perServer/4 + 4
	loads := make([]int, d.pop.TotalServers())
	for gh := 0; gh < d.pop.TotalHosts(); gh++ {
		r := gh / d.pop.HostsPerRegion
		loads[r*d.pop.ServersPerRegion+gh%d.pop.ServersPerRegion] += d.pop.UsersOnHost(gh)
	}
	out := make([]ServerLoad, 0, len(loads))
	for gs, l := range loads {
		name := d.serverName(gs)
		rho := float64(l) / float64(maxLoad)
		out = append(out, ServerLoad{
			Name:     name,
			Region:   d.pop.RegionName(gs / d.pop.ServersPerRegion),
			Load:     l,
			MaxLoad:  maxLoad,
			Rho:      rho,
			QWait:    queueing.Wait(rho),
			Deposits: deposits[name+".deposits"],
		})
	}
	return out
}
