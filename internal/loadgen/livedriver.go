package loadgen

import (
	"context"
	"fmt"
	"time"

	"github.com/largemail/largemail/internal/faults"
	"github.com/largemail/largemail/internal/livenet"
	"github.com/largemail/largemail/internal/mail/mailstore"
	"github.com/largemail/largemail/internal/names"
	"github.com/largemail/largemail/internal/obs"
	"github.com/largemail/largemail/internal/placement"
	"github.com/largemail/largemail/internal/queueing"
)

// liveTick is the wall-clock duration of one schedule tick on the live
// transports unless LiveConfig.Tick says otherwise.
const liveTick = 2 * time.Millisecond

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
	// noSpool disables the redelivery spool entirely. Without it a Submit
	// commits only the recipients whose deposit succeeded, so a multi-
	// recipient Submit can partially commit while reporting an error —
	// drive no-spool runs with Workload{maxRecipients: 1} to keep the
	// commit all-or-nothing. This is how the durability soak proves the
	// store alone (not spool redelivery) carries mail across kill-restarts.
	noSpool bool
	// DataDir, when set, makes every server's mailbox store durable
	// (server NAME journals to DataDir/NAME) and adds KillTargets to the
	// fault surface.
	DataDir string
	// Fsync is the WAL fsync policy when DataDir is set.
	Fsync mailstore.FsyncMode

	// Policy selects the placement policy ("static", "jsq", "rebalance");
	// empty means static, which here is placement.RoundRobin.
	Policy string
	// JSQD is JSQ(d)'s sample width (0 = d=2).
	JSQD int
	// ServiceRate is each server's service capacity in deposits per tick;
	// > 0 publishes arrival-rate ρ on the "<name>.rho" gauges and slows
	// servers pushed past ρ=1 (injected latency), mirroring the sim driver's
	// congestion loop on wall-clock time. Zero publishes placement-share ρ
	// and leaves latency alone.
	ServiceRate float64
}

// LiveDriver drives the livenet transport: goroutine servers, wall-clock
// time, spool-backed redelivery. Server gs of region r is named
// "S<r·ServersPerRegion+s>" and is placement slot gs; the static placement is
// placement.RoundRobin — AuthorityLen servers of the user's region starting at
// slot (host mod ServersPerRegion), so primary load spreads evenly without
// running the full §3.1.1 engine — and the predicted loads in ServerLoads use
// that same round-robin placement.
type LiveDriver struct {
	cfg     LiveConfig
	pop     Population
	cluster *livenet.Cluster

	agents    map[int]*livenet.Agent
	prevPolls map[int]int
	mint      nameMint

	placer
}

// NewLiveDriver builds the cluster and starts one goroutine per server.
// Call Close when done.
func NewLiveDriver(cfg LiveConfig) (*LiveDriver, error) {
	cfg.Pop = cfg.Pop.withDefaults()
	if cfg.Tick <= 0 {
		cfg.Tick = liveTick
	}
	policy, err := placement.ParseName(cfg.Policy)
	if err != nil {
		return nil, err
	}
	cluster := livenet.NewClusterWith(livenet.ClusterConfig{DataDir: cfg.DataDir, Fsync: cfg.Fsync})
	for gs := 0; gs < cfg.Pop.TotalServers(); gs++ {
		if _, err := cluster.AddServer(serverLabel(gs)); err != nil {
			cluster.Close()
			return nil, err
		}
	}
	if !cfg.noSpool {
		if err := cluster.EnableSpool(cfg.Spool); err != nil {
			cluster.Close()
			return nil, err
		}
	}
	return newLiveDriver(cluster, cfg, policy), nil
}

// newLiveDriver is the driver over a running cluster (its own, or the one
// behind a wire server) whose servers are "S0".."S<TotalServers-1>": the user
// table and the placement loop for the named policy.
func newLiveDriver(cluster *livenet.Cluster, cfg LiveConfig, policy string) *LiveDriver {
	d := &LiveDriver{
		cfg: cfg, pop: cfg.Pop, cluster: cluster,
		agents:    make(map[int]*livenet.Agent),
		prevPolls: make(map[int]int),
	}
	cluster.Tracer().KeepAll() // the engine's trace-gap audit reads every trace at the end
	world := d.pop.world()
	d.placer.start(d, d.pop, policy, placement.NewRoundRobin(world), placement.Config{
		World: world, Seed: int64(d.pop.Users), D: cfg.JSQD,
		Gauges: cluster.Obs(), Label: serverLabel,
	}, cfg.ServiceRate)
	return d
}

// Close stops the spool and every server goroutine.
func (d *LiveDriver) Close() { d.cluster.Close() }

// homeOf places user u — once, on first touch — and returns the names of the
// servers the policy chose, primary first.
func (d *LiveDriver) homeOf(u int) []string {
	slots := d.place(u, d.pop.HostOf(u))
	list := make([]string, len(slots))
	for i, s := range slots {
		list[i] = serverLabel(s)
	}
	return list
}

// ensure lazily registers user u in the directory and creates its agent.
func (d *LiveDriver) ensure(u int) (*livenet.Agent, names.Name, error) {
	if ag, ok := d.agents[u]; ok {
		return ag, ag.User(), nil
	}
	name := d.mint.name(d.pop, u)
	d.cluster.Directory().SetAuthority(name, d.homeOf(u))
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
	id, err := d.cluster.SubmitContext(context.Background(), fromName, rcpts, subject, body)
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
	got := ag.TakeMail() // only the IDs leave here; an agent lives as long as the run does
	d.noteRetrieved(u, len(got))
	res := RetrieveResult{
		Polls:        ag.Polls() - d.prevPolls[u],
		LastChecking: ag.LastCheckingTime().UnixNano(),
	}
	d.prevPolls[u] = ag.Polls()
	for _, m := range got {
		res.IDs = append(res.IDs, m.ID)
	}
	return res
}

// Step implements Driver: one tick is a short wall-clock sleep, after which
// the per-server ρ and placed gauges are refreshed (qdepth is maintained
// inline by the servers).
func (d *LiveDriver) Step(n int) {
	if n > 0 {
		time.Sleep(time.Duration(n) * d.cfg.Tick)
		d.refresh(n)
	}
}

// deposits implements placedTransport.
func (d *LiveDriver) deposits(slot int, _ *obs.Gauge) (int64, bool) {
	return d.cluster.Obs().Counter(serverLabel(slot) + ".deposits").Value(), true
}

// slow implements placedTransport: an overloaded server answers later.
func (d *LiveDriver) slow(slot int, ticks float64) {
	if s, ok := d.cluster.Server(serverLabel(slot)); ok {
		s.SetLatency(time.Duration(ticks * float64(d.cfg.Tick)))
	}
}

// migrateToSlot re-homes one live user onto slot to: drain under the old
// list, then swap the directory entry to a list led by the target with the
// old servers kept as secondaries (the agent re-reads the directory on every
// GetMail, so the swap is the whole handover). The handover is only attempted
// in calm conditions — empty spool (a spooled entry is a deposit still in
// flight somewhere), every involved server up and reachable, no servers owed
// a recovery visit — because only then does a drain prove the old mailboxes
// empty; otherwise the user is left put and the next tick retries.
func (d *LiveDriver) migrateToSlot(u, from, to, tick int) MigrationResult {
	res := MigrationResult{User: u}
	ag := d.agents[u]
	if ag == nil || d.cluster.SpoolDepth() > 0 {
		return res
	}
	name := ag.User()
	toName := serverLabel(to)
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
	for _, m := range ag.TakeMail() {
		res.Drained = append(res.Drained, m.ID)
	}
	d.noteRetrieved(u, len(res.Drained)) // drained mail is traffic too
	d.prevPolls[u] = ag.Polls()          // the drain's polls are not the next sweep's
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
	d.moved(u, from, to, tick, len(res.Drained))
	res.Moved = true
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
func (d *LiveDriver) Injector() faults.Injector { return liveInjector{d.cluster, d.cfg.Tick} }

// liveInjector injects a schedule into a live cluster. Link events carry over
// as per-server reachability: the live transport's topology is
// client–server, so "the link to s1 failed" means s1 is running but
// unreachable (§3.1.2c's "disconnected from the network"); whichever of
// Target/Peer names a known server is toggled. One schedule tick is tick of
// wall-clock time.
type liveInjector struct {
	cluster *livenet.Cluster
	tick    time.Duration
}

// Inject implements faults.Injector.
func (t liveInjector) Inject(e faults.Event) error {
	s, ok := t.cluster.Server(e.Target)
	if !ok && e.Peer != "" {
		s, ok = t.cluster.Server(e.Peer)
	}
	if !ok {
		return fmt.Errorf("loadgen: no live server for event %v", e)
	}
	switch e.Kind {
	case faults.Crash:
		s.Crash()
	case faults.Recover:
		s.Recover()
	case faults.LinkFail:
		s.SetReachable(false)
	case faults.LinkRestore:
		s.SetReachable(true)
	case faults.Latency:
		s.SetLatency(time.Duration(e.DelayTicks) * t.tick)
	case faults.Drop:
		s.SetDropProb(e.Prob)
	case faults.Kill:
		return s.Kill()
	case faults.Restart:
		return s.Restart()
	default:
		return fmt.Errorf("loadgen: unknown event kind %v", e.Kind)
	}
	return nil
}

// FaultSurface implements Driver. On the live transport servers are safe
// drop targets (transient drops are retried on the same server, never
// failed over), and link faults resolve to server unreachability — which
// stamps LastStartTime on restore, so the GetMail walk recovers deposits
// that failed over past the partition.
func (d *LiveDriver) FaultSurface() faults.Spec {
	sp := faults.Spec{Servers: d.cluster.ServerNames(), Links: d.pop.ringLinks(0)}
	sp.DropTargets = append([]string(nil), sp.Servers...)
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
	maxLoad := d.pop.MaxLoad()
	loads := make([]int, d.pop.TotalServers())
	for gh := 0; gh < d.pop.TotalHosts(); gh++ {
		r := gh / d.pop.HostsPerRegion
		loads[r*d.pop.ServersPerRegion+gh%d.pop.ServersPerRegion] += d.pop.UsersOnHost(gh)
	}
	out := make([]ServerLoad, 0, len(loads))
	for gs, l := range loads {
		name := serverLabel(gs)
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
