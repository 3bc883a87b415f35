package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"github.com/largemail/largemail/internal/assign"
	"github.com/largemail/largemail/internal/attr"
	"github.com/largemail/largemail/internal/broadcast"
	"github.com/largemail/largemail/internal/graph"
	"github.com/largemail/largemail/internal/livenet"
	"github.com/largemail/largemail/internal/loadgen"
	"github.com/largemail/largemail/internal/mail"
	"github.com/largemail/largemail/internal/mail/mailstore"
	"github.com/largemail/largemail/internal/mst"
	"github.com/largemail/largemail/internal/names"
	"github.com/largemail/largemail/internal/netsim"
	"github.com/largemail/largemail/internal/obs"
	"github.com/largemail/largemail/internal/server"
	"github.com/largemail/largemail/internal/sim"
	"github.com/largemail/largemail/internal/sketch"
	"github.com/largemail/largemail/internal/wire"
)

// Replays are the per-layer half of the traced run. The traced pass records
// the submits its workload generated (opLog); afterwards each layer on the
// workload's path gets those same messages fed straight into its public
// functions, bypassing the layers above it, so the layer's cost per message
// of this workload is measured alone. A workload replays only the layers
// it runs through (workloadDef.Replays).

// opMsg is one submit a workload generated: user indices of its population.
type opMsg struct {
	from          int
	to            []int
	subject, body string
}

// maxOps bounds the recorded stream: enough messages for every replay to
// time, little enough that recording costs the traced pass nothing.
const maxOps = 1 << 14

// opLog records a traced pass's submits. A nil log records nothing.
type opLog struct{ msgs []opMsg }

func (l *opLog) add(from int, to []int, subject, body string) {
	if l == nil || len(l.msgs) >= maxOps {
		return
	}
	l.msgs = append(l.msgs, opMsg{from, append([]int(nil), to...), subject, body})
}

// replayTerms are what synthetic bodies are about: the terms the attribute
// scenario's content queries search for, and some they do not.
var replayTerms = []string{"budget", "offsite", "seminar", "deadline", "picnic", "forecast", "review", "travel"}

// drawOps stands in for the recorded stream on sim_roaming and sim_attr,
// which are driven through entry points that take the concrete driver
// (RunRoamScenario, AttrScenario.Run), so the benchmark cannot see their
// submits from outside. It draws what loadgen's default Workload draws:
// 1–3 recipients with a 0.4 chance of each further one, bodies of 64–2048 B
// skewed small.
func drawOps(seed int64, pop loadgen.Population, n int) []opMsg {
	rng := rand.New(rand.NewSource(seed))
	// One term per body, as the attribute scenario's bulletins have, so a
	// term search matches its share of the index and not all of it.
	bodies := make([]string, len(replayTerms))
	for i, term := range replayTerms {
		bodies[i] = strings.Repeat(term+" ", 2048/len(term))
	}
	ops := make([]opMsg, n)
	for i := range ops {
		to := []int{rng.Intn(pop.Users)}
		for len(to) < 3 && rng.Float64() < 0.4 {
			if u := rng.Intn(pop.Users); !slices.Contains(to, u) { // distinct: each owes one copy
				to = append(to, u)
			}
		}
		size := 64 + min(rng.Intn(1985), rng.Intn(1985))
		ops[i] = opMsg{rng.Intn(pop.Users), to, "bench", bodies[rng.Intn(len(bodies))][:size]}
	}
	return ops
}

// timeOps runs fn(i) for i in [0, n) and returns ns and allocations per op.
func timeOps(n int, fn func(i int)) (ns, allocs float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	el := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return float64(el.Nanoseconds()) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// replayInput is the recorded stream in the forms the layers take.
type replayInput struct {
	pop   loadgen.Population // the workload's: maps user indices to names
	batch int                // messages per wire frame
	scale float64            // the traced pass's share of the issue's sizes
	dir   string             // scratch for durable stores

	ops    []opMsg
	msgs   []mail.Message // ops[i] as a message, IDs 1-1 … 1-n
	copies []copyOf       // one per message × recipient, in stream order
	rcpts  []int          // distinct recipients, ascending
	names  map[int]names.Name
}

// copyOf is one recipient's copy of msgs[msg].
type copyOf struct {
	msg int
	to  names.Name
}

type replay func(in *replayInput, out map[string]float64) error

func newReplayInput(def workloadDef, seed int64, scale float64, dir string, ops []opMsg) *replayInput {
	in := &replayInput{pop: *def.Pop, batch: max(def.Batch, 1), scale: scale, dir: dir, ops: ops, names: map[int]names.Name{}}
	if len(in.ops) == 0 {
		in.ops = drawOps(seed, in.pop, in.n(maxOps))
	}
	name := func(u int) names.Name {
		n, ok := in.names[u]
		if !ok {
			n = in.pop.Name(u)
			in.names[u] = n
		}
		return n
	}
	seen := map[int]bool{}
	for i, op := range in.ops {
		m := mail.Message{ID: mail.MessageID{Node: 1, Seq: uint64(i + 1)}, From: name(op.from), Subject: op.subject, Body: op.body}
		for _, u := range op.to {
			m.To = append(m.To, name(u))
			in.copies = append(in.copies, copyOf{i, name(u)})
			if !seen[u] {
				seen[u] = true
				in.rcpts = append(in.rcpts, u)
			}
		}
		in.msgs = append(in.msgs, m)
	}
	sort.Ints(in.rcpts)
	return in
}

// n scales an iteration count, given like every count at the issue's full
// size, to the run; never below what a timing needs.
func (in *replayInput) n(fullCount int) int { return max(64, int(float64(fullCount)*in.scale)) }

// rcpt returns the i-th distinct recipient's name, cycling.
func (in *replayInput) rcpt(i int) names.Name { return in.names[in.rcpts[i%len(in.rcpts)]] }

// runReplays feeds ops to the layers on def's path and adds what they
// measure to out.
func runReplays(def workloadDef, o runOpts, scale float64, ops []opMsg, out map[string]float64) error {
	dir := filepath.Join(o.Scratch, fmt.Sprintf("replay-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	in := newReplayInput(def, o.Seed, scale, dir, ops)
	for _, r := range def.Replays {
		runtime.GC()
		t0 := time.Now()
		if err := r(in, out); err != nil {
			return err
		}
		if !o.Quiet {
			name := runtime.FuncForPC(reflect.ValueOf(r).Pointer()).Name()
			fmt.Fprintf(os.Stderr, "%s %s: %.3fs\n", def.Name, name[strings.LastIndex(name, ".")+1:], time.Since(t0).Seconds())
		}
	}
	return nil
}

// replayWire times the binary codec on the frames the workload sent, and
// one depth-1 round trip of an empty getmail.
func replayWire(in *replayInput, out map[string]float64) error {
	const frames = 1024
	laps := max(1, in.n(32)) // times over the recorded frames
	reqs, resps := make([]wire.Request, 0, frames), make([]wire.Response, 0, frames)
	sent := 0
	for i := 0; i+in.batch <= len(in.ops) && len(reqs) < frames; i += in.batch {
		op := in.ops[i]
		req := wire.Request{Op: "submit", From: in.names[op.from].String(), Subject: op.subject, Body: op.body}
		resp := wire.Response{OK: true, ID: in.msgs[i].ID.String()}
		for _, u := range op.to {
			req.To = append(req.To, in.names[u].String())
		}
		if in.batch > 1 {
			req, resp = wire.Request{Op: "tbatch", From: req.From}, wire.Response{OK: true}
			for j, b := range in.ops[i : i+in.batch] {
				to := make([]string, len(b.to))
				for k, u := range b.to {
					to[k] = in.names[u].String()
				}
				req.Msgs = append(req.Msgs, wire.BatchMsg{To: to, Subject: b.subject, Body: b.body})
				resp.IDs = append(resp.IDs, in.msgs[i+j].ID.String())
			}
		}
		reqs, resps = append(reqs, req), append(resps, resp)
		sent += in.batch
	}
	if len(reqs) == 0 {
		return fmt.Errorf("wire replay: %d recorded messages do not fill one frame of %d", len(in.ops), in.batch)
	}
	// A frame is uint32 length | payload | uint32 CRC; the payload starts
	// with the op byte.
	payload := func(frame []byte) []byte { return frame[4 : len(frame)-4] }
	var reqFrame, respFrame []byte
	var err error
	var bytes int
	ns, allocs := timeOps(laps*len(reqs), func(i int) {
		if reqFrame, err = wire.AppendBinaryRequest(reqFrame[:0], reqs[i%len(reqs)], uint32(i)); err != nil {
			return
		}
		if _, _, err = wire.DecodeBinaryRequest(payload(reqFrame)); err != nil {
			return
		}
		if respFrame, err = wire.AppendBinaryResponse(respFrame[:0], payload(reqFrame)[0], uint32(i), resps[i%len(resps)]); err != nil {
			return
		}
		_, _, err = wire.DecodeBinaryResponse(payload(respFrame))
		bytes += len(reqFrame) + len(respFrame)
	})
	if err != nil {
		return fmt.Errorf("wire codec: %w", err)
	}
	per := float64(in.batch)
	out["wire.codec_ns_per_msg"] = ns / per
	out["wire.codec_allocs_per_msg"] = allocs / per
	out["wire.frame_bytes_per_msg"] = float64(bytes) / float64(laps*sent)

	srv, err := wire.NewServer("127.0.0.1:0", []string{"S0", "S1"})
	if err != nil {
		return err
	}
	defer srv.Close()
	c, err := wire.Dial(srv.Addr())
	if err != nil {
		return err
	}
	defer c.Close()
	user := in.rcpt(0).String()
	if err := c.Register(user, "S0", "S1"); err != nil {
		return err
	}
	warm, calls := 200, in.n(12_000)
	rtts := make([]float64, 0, calls)
	for i := 0; i < warm+calls; i++ {
		t0 := time.Now()
		if _, err := c.GetMail(user); err != nil {
			return err
		}
		if i >= warm { // the first calls negotiate and warm the connection
			rtts = append(rtts, us(time.Since(t0)))
		}
	}
	out["wire.rtt_p50_us"] = p50(rtts)
	return nil
}

// depositAll deposits every recorded copy and returns ns and allocations
// per copy.
func (in *replayInput) depositAll(st *mailstore.Store) (ns, allocs float64) {
	return timeOps(len(in.copies), func(i int) {
		c := in.copies[i]
		st.Deposit(c.to, in.msgs[c.msg], sim.Time(i))
	})
}

// replayMailstore times the in-memory mailbox store on the recorded copies:
// deposit, drain, and the empty-mailbox check polling spends its time in.
func replayMailstore(in *replayInput, out map[string]float64) error {
	n := float64(len(in.copies))
	base := heapAfterGC()
	st := mailstore.New(0)
	out["mailstore.deposit_ns"], out["mailstore.deposit_allocs"] = in.depositAll(st)
	drained := 0
	dns, dallocs := timeOps(len(in.rcpts), func(i int) { drained += len(st.Drain(in.rcpt(i))) })
	if drained != len(in.copies) {
		return fmt.Errorf("mailstore replay: drained %d of %d copies", drained, len(in.copies))
	}
	out["mailstore.drain_ns"] = dns * float64(len(in.rcpts)) / n
	out["mailstore.drain_allocs"] = dallocs * float64(len(in.rcpts)) / n
	// Drained mailboxes keep every ID they ever saw.
	out["mailstore.retained_bytes_per_msg"] = (float64(heapAfterGC()) - float64(base)) / n
	out["mailstore.check_empty_ns"], _ = timeOps(in.n(800_000), func(i int) { st.UpdateExisting(in.rcpt(i), func(*mail.Mailbox) {}) })
	return nil
}

// replayDurableStore times the journaled store the wire workloads run on:
// deposit with its WAL append, and a cold recovery of what was appended.
func replayDurableStore(in *replayInput, out map[string]float64) error {
	n := float64(len(in.copies))
	opts := mailstore.Options{Dir: filepath.Join(in.dir, "store"), Fsync: mailstore.FsyncNever, Shards: wireStoreShards}
	st, err := mailstore.OpenOptions(opts)
	if err != nil {
		return err
	}
	// deposit + WAL append + encoding the journal records in between
	out["mailstore.durable_deposit_ns"], _ = in.depositAll(st)
	ws, _ := st.WALStats()
	if err := st.Close(); err != nil {
		return err
	}
	out["mailstore.wal_append_ns_per_msg"] = float64(ws.AppendNs) / n
	out["mailstore.wal_bytes_per_msg"] = float64(ws.Bytes) / n
	reopened, err := mailstore.OpenOptions(opts)
	if err != nil {
		return err
	}
	rs, _ := reopened.RecoveryStats()
	if err := reopened.Close(); err != nil {
		return err
	}
	if rs.Messages != int64(len(in.copies)) {
		return fmt.Errorf("mailstore replay: recovered %d of %d copies", rs.Messages, len(in.copies))
	}
	out["mailstore.recovery_records_per_s"] = float64(rs.Records) / rs.Elapsed.Seconds()
	return nil
}

// replayTermIndex times what sim_attr adds to the store: indexing a
// deposit, a term search, and rebuilding the store's sketch. It runs after
// replayMailstore, whose plain deposit it subtracts.
func replayTermIndex(in *replayInput, out map[string]float64) error {
	st := mailstore.New(0)
	st.EnableTermIndex()
	ins, _ := in.depositAll(st)
	out["mailstore.index_add_ns"] = ins - out["mailstore.deposit_ns"]
	out["mailstore.search_terms_ns"], _ = timeOps(in.n(100), func(i int) { st.SearchTerms([]string{replayTerms[i%len(replayTerms)]}) })
	extra := in.msgs[0]
	out["mailstore.sketch_ns"], _ = timeOps(in.n(100), func(i int) {
		extra.ID.Seq = uint64(len(in.msgs) + i + 1)
		st.Deposit(in.rcpt(i), extra, 0) // moves the generation, so Sketch rebuilds
		st.Sketch()
	})
	return nil
}

// replayLivenet hands the recorded messages to a cluster laid out like the
// wire workloads' — same servers, authority lists and durable stores —
// without the wire in front, then reads them back through agents.
func replayLivenet(in *replayInput, out map[string]float64) error {
	cl := livenet.NewClusterWith(livenet.ClusterConfig{
		DataDir: filepath.Join(in.dir, "cluster"), Fsync: mailstore.FsyncNever, StoreShards: wireStoreShards,
	})
	defer cl.Close()
	for gs := 0; gs < in.pop.TotalServers(); gs++ {
		if _, err := cl.AddServer(serverName(gs)); err != nil {
			return err
		}
	}
	if err := cl.EnableSpool(livenet.SpoolConfig{}); err != nil {
		return err
	}
	for u, name := range in.names {
		cl.Directory().SetAuthority(name, authority(u))
	}
	n := len(in.msgs)
	base := heapAfterGC()
	var subErr error
	ns, allocs := timeOps(n, func(i int) {
		m := in.msgs[i]
		if _, err := cl.Submit(m.From, m.To, m.Subject, m.Body); err != nil {
			subErr = err
		}
	})
	if subErr != nil {
		return fmt.Errorf("livenet submit: %w", subErr)
	}
	out["livenet.submit_ns_per_msg"], out["livenet.submit_allocs_per_msg"] = ns, allocs

	agents := make([]*livenet.Agent, len(in.rcpts))
	got := 0
	for i := range agents {
		a, err := cl.NewAgent(in.rcpt(i))
		if err != nil {
			return err
		}
		agents[i] = a
		got += len(a.GetMail())
	}
	if got != len(in.copies) {
		return fmt.Errorf("livenet replay: retrieved %d of %d copies", got, len(in.copies))
	}
	// The cluster's tracer keeps one trace per message, the agent its
	// whole inbox, the mailboxes every ID they saw.
	out["livenet.retained_bytes_per_msg"] = (float64(heapAfterGC()) - float64(base)) / float64(n)
	out["livenet.getmail_ns_per_op"], out["livenet.getmail_allocs_per_op"] = timeOps(in.n(80_000), func(i int) { agents[i%len(agents)].GetMail() })

	s0, _ := cl.Server(serverName(0))
	out["livenet.server_call_ns"], _ = timeOps(in.n(80_000), func(i int) { _, _ = s0.MailboxLen(in.rcpt(i)) })
	out["livenet.directory_authority_ns"], out["livenet.directory_authority_allocs"] = timeOps(in.n(800_000), func(i int) { cl.Directory().Authority(in.rcpt(i)) })
	// What Submit costs beyond the durable store deposits it ends in.
	out["livenet.self_ns_per_msg"] = ns - out["mailstore.durable_deposit_ns"]*float64(len(in.copies))/float64(n)
	return nil
}

// replayTracer stamps the six lifecycle stages of every recorded message
// into a fresh tracer, as the delivery path does.
func replayTracer(in *replayInput, out map[string]float64) error {
	ids := make([]string, len(in.msgs))
	for i, m := range in.msgs {
		ids[i] = m.ID.String()
	}
	stages := []obs.Stage{obs.StageSubmit, obs.StageResolve, obs.StageRelay, obs.StageDeposit, obs.StageNotify, obs.StageRetrieve}
	base := heapAfterGC()
	tr := obs.NewTracer(obs.WallClock, obs.NewRegistry())
	ns, allocs := timeOps(len(ids), func(i int) {
		for _, s := range stages {
			tr.Stamp(ids[i], s, "replay")
		}
	})
	per := float64(len(stages))
	out["obs.tracer_stamp_ns"], out["obs.tracer_stamp_allocs"] = ns/per, allocs/per
	out["obs.tracer_retained_bytes_per_msg"] = (float64(heapAfterGC()) - float64(base)) / float64(len(ids))
	runtime.KeepAlive(tr)
	return nil
}

// replayHistogram times one latency observation; every system in the
// repository records its stage latencies this way.
func replayHistogram(in *replayInput, out map[string]float64) error {
	h := obs.NewHistogram(nil)
	out["obs.histogram_observe_ns"], _ = timeOps(in.n(4_000_000), func(i int) { h.Observe(float64(i%5000) * 1e3) })
	return nil
}

// replayDirectory resolves the recorded recipients in a region directory,
// the lookup server.Submit starts with.
func replayDirectory(in *replayInput, out map[string]float64) error {
	dir := server.NewDirectory("R0")
	local := make([]names.Name, len(in.rcpts)) // a directory serves one region
	spr := in.pop.ServersPerRegion
	for i := range local {
		local[i] = in.rcpt(i)
		local[i].Region = "R0"
		if err := dir.SetAuthority(local[i], []graph.NodeID{graph.NodeID(100 + i%spr), graph.NodeID(100 + (i+1)%spr)}); err != nil {
			return err
		}
	}
	out["server.directory_resolve_ns"], _ = timeOps(in.n(800_000), func(i int) { dir.Resolve(local[i%len(local)]) })
	return nil
}

// replaySimKernel times the substrates under every simulated path: the
// event kernel, and a network send on a ring of the workload's servers.
func replaySimKernel(in *replayInput, out map[string]float64) error {
	s := sim.New(1)
	out["sim.event_ns"], _ = timeOps(in.n(2_000_000), func(i int) {
		s.After(sim.Time(i%1000), func() {})
		if i%1024 == 1023 {
			s.Run()
		}
	})

	nodes := in.pop.TotalServers()
	g := graph.New()
	for i := 1; i <= nodes; i++ {
		g.MustAddNode(graph.Node{ID: graph.NodeID(i), Label: serverName(i), Region: "R0", Kind: graph.KindServer})
	}
	for i := 1; i <= nodes; i++ {
		g.MustAddEdge(graph.NodeID(i), graph.NodeID(i%nodes+1), 1)
	}
	sched := sim.New(1)
	net := netsim.New(sched, g)
	for i := 1; i <= nodes; i++ {
		net.MustRegister(graph.NodeID(i), netsim.HandlerFunc(func(netsim.Envelope) {}))
	}
	var sendErr error
	out["netsim.send_ns"], _ = timeOps(in.n(200_000), func(i int) {
		if err := net.Send(graph.NodeID(i%nodes+1), graph.NodeID((i*7+3)%nodes+1), i); err != nil {
			sendErr = err
		}
		if i%256 == 255 {
			sched.Run()
		}
	})
	if sendErr != nil {
		return fmt.Errorf("netsim send: %w", sendErr)
	}
	return nil
}

// replayLocind times one roaming delivery (send → deposit → retrieve) and a
// live rehash over loaded mailboxes, on a location-independent system of
// sim_roaming's shape.
func replayLocind(in *replayInput, out map[string]float64) error {
	drv, err := loadgen.NewRoamDriver(loadgen.RoamConfig{Seed: 1, Pop: in.pop})
	if err != nil {
		return err
	}
	var subErr error
	send := func(i int) {
		op := in.ops[i%len(in.ops)]
		if _, err := drv.Submit(op.from, op.to, op.subject, op.body); err != nil {
			subErr = err
		}
	}
	delivers := in.n(4000)
	out["locind.deliver_ns"], _ = timeOps(delivers, func(i int) {
		send(i)
		drv.Settle()
		for _, u := range in.ops[i%len(in.ops)].to {
			drv.Retrieve(u)
		}
	})
	for i := delivers; i < 3*delivers; i++ {
		send(i)
	}
	drv.Settle()
	if subErr != nil {
		return fmt.Errorf("locind submit: %w", subErr)
	}
	moved := 0
	spr := in.pop.ServersPerRegion
	t0 := time.Now()
	for _, k := range []int{2*spr + 1, 2 * spr, 2*spr + 1, 2 * spr} { // RunRoamScenario's moduli
		m, err := drv.Rehash(k)
		if err != nil {
			return err
		}
		drv.Settle()
		moved += m
	}
	out["locind.rehash_ns_per_moved"] = ratio(float64(time.Since(t0).Nanoseconds()), float64(moved))
	return nil
}

// replayBroadcast times one broadcast + convergecast with a trivial
// evaluator on a back-bone of sim_attr's shape, and one aggregation of the
// subtree sketches of a loaded scenario.
func replayBroadcast(in *replayInput, out map[string]float64) error {
	g := graph.MultiRegion(rand.New(rand.NewSource(33)), graph.MultiRegionSpec{
		Regions: in.pop.Regions, NodesPerRegion: in.pop.ServersPerRegion, ExtraIntra: 2, InterLinks: 2,
	})
	res, err := mst.Backbone(g, false)
	if err != nil {
		return err
	}
	net := netsim.New(sim.New(33), g)
	bt, err := broadcast.Setup(broadcast.Config{Net: net, Tree: res.Combined})
	if err != nil {
		return err
	}
	origin := g.NodeIDs()[0]
	var startErr error
	out["broadcast.distribute_ns_per_query"], _ = timeOps(in.n(8000), func(i int) {
		if _, err := bt.Start(origin, i, nil); err != nil {
			startErr = err
		}
		net.Scheduler().Run()
	})
	if startErr != nil {
		return fmt.Errorf("broadcast start: %w", startErr)
	}

	s, err := loadgen.NewAttrScenario(loadgen.AttrConfig{Seed: 1, Pop: in.pop, Queries: 4})
	if err != nil {
		return err
	}
	if rep := s.Run(); !rep.Ok { // loads the stores' sketches
		return fmt.Errorf("attr scenario: %v", rep.Violations)
	}
	out["broadcast.refresh_sketches_ns"], _ = timeOps(in.n(800), func(int) {
		s.Tree().RefreshSketches()
		s.Network().Scheduler().Run()
	})
	return nil
}

// replaySketchAttr times the term sketch and the attribute planner/matcher.
func replaySketchAttr(in *replayInput, out map[string]float64) error {
	terms := make([]string, 400) // loads the default filter to a false-positive share near 2 %
	for i := range terms {
		terms[i] = fmt.Sprintf("term%05d", i)
	}
	cnt := sketch.NewCounting()
	out["sketch.add_remove_ns"], _ = timeOps(in.n(800_000), func(i int) {
		cnt.Add(terms[i%len(terms)])
		cnt.Remove(terms[i%len(terms)])
	})
	f := sketch.NewFilter()
	for _, t := range terms {
		f.Add(t)
	}
	absent := make([]string, in.n(80_000))
	for i := range absent {
		absent[i] = fmt.Sprintf("absent%05d", i)
	}
	fp := 0
	out["sketch.probe_ns"], _ = timeOps(len(absent), func(i int) {
		if f.MayContain(absent[i]) {
			fp++
		}
	})
	out["sketch.fp_share"] = float64(fp) / float64(len(absent))

	var parseErr error
	var q attr.Query
	out["attr.parse_plan_ns"], _ = timeOps(in.n(400_000), func(int) {
		if q, parseErr = attr.ParseQuery("content=budget, content=forecast"); parseErr == nil {
			attr.PlanQuery(q)
		}
	})
	if parseErr != nil {
		return fmt.Errorf("attr parse: %w", parseErr)
	}
	profiles := make([]*attr.Profile, len(in.rcpts))
	for i := range profiles {
		p := &attr.Profile{User: in.rcpt(i)}
		p.Add(attr.TypeExpertise, []string{"mail", "db", "net"}[i%3], attr.Public)
		profiles[i] = p
	}
	match := attr.Query{Predicates: []attr.Predicate{{Type: attr.TypeExpertise, Op: attr.OpEquals, Pattern: "mail"}}}
	hits := 0
	out["attr.match_ns"], _ = timeOps(in.n(1_600_000), func(i int) {
		if match.Matches(profiles[i%len(profiles)]) {
			hits++
		}
	})
	if hits == 0 {
		return fmt.Errorf("attr match: no profile matched")
	}
	return nil
}

// replayAssign times the §3.1.1 balancer on 2 000 hosts × the workload's
// servers — the reconfiguration cost behind the sim drivers' set-up.
func replayAssign(in *replayInput, out map[string]float64) error {
	rng := rand.New(rand.NewSource(7))
	hostCount := min(2000, in.n(8000)) // fewer only in runs too short to afford it
	servers := in.pop.TotalServers()
	g := graph.RandomConnected(rng, servers+hostCount, 3*hostCount, 1)
	ids := g.NodeIDs()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	srv, hosts := ids[:servers], ids[servers:]
	users := make(map[graph.NodeID]int, len(hosts))
	total := 0
	for _, h := range hosts {
		users[h] = 20 + rng.Intn(71)
		total += users[h]
	}
	maxLoad := make(map[graph.NodeID]int, len(srv))
	for _, s := range srv {
		maxLoad[s] = total/len(srv) + total/(3*len(srv))
	}
	commW, procW, procTime := assign.PaperWeights()
	t0 := time.Now()
	a, err := assign.New(assign.Config{
		Topology: g, Hosts: hosts, Servers: srv, Users: users, MaxLoad: maxLoad,
		ProcTime: procTime, CommW: commW, ProcW: procW, MoveBatch: 10,
	})
	if err != nil {
		return err
	}
	stats := a.Run()
	out["assign.balance_2k_ms"] = float64(time.Since(t0).Nanoseconds()) / 1e6
	out["assign.moves"] = float64(stats.Moves)
	return nil
}
