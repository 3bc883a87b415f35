package wire

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/largemail/largemail/internal/livenet"
	"github.com/largemail/largemail/internal/mail"
	"github.com/largemail/largemail/internal/mail/mailstore"
	"github.com/largemail/largemail/internal/mailerr"
	"github.com/largemail/largemail/internal/names"
	"github.com/largemail/largemail/internal/obs"
)

// refTBatch is opTBatch as it was before a frame became one grouped deposit,
// kept as the reference model: one Cluster.Submit per message, its
// recipients parsed one message at a time, each ID made a string as it is
// minted, and an item that failed for any recipient answered "".
func refTBatch(s *Server, req Request) Response {
	from, err := names.Parse(req.From)
	if err != nil {
		return fail("from: %v", err)
	}
	if len(req.Msgs) == 0 {
		return fail("empty batch")
	}
	ids := make([]string, len(req.Msgs))
	var failed []BatchFailure
	for i, m := range req.Msgs {
		to, err := refParseNames(m.To)
		if err == nil && len(to) == 0 {
			err = errors.New("no recipients")
		}
		if err == nil {
			var id mail.MessageID
			id, err = s.cluster.Submit(from, to, m.Subject, m.Body)
			if err == nil {
				ids[i] = id.String()
				continue
			}
		}
		failed = append(failed, BatchFailure{Index: i, Error: err.Error(), Code: mailerr.Code(err)})
	}
	return Response{OK: true, IDs: ids, Failed: failed}
}

func refParseNames(raw []string) ([]names.Name, error) {
	out := make([]names.Name, 0, len(raw))
	for _, r := range raw {
		n, err := names.Parse(r)
		if err != nil {
			return nil, fmt.Errorf("to %q: %w", r, err)
		}
		out = append(out, n)
	}
	return out, nil
}

// tbatchIDs is a served tbatch answer's IDs as a client reads them.
func tbatchIDs(resp Response) []string {
	if resp.ids == nil {
		return resp.IDs
	}
	out := make([]string, len(resp.ids))
	for i, id := range resp.ids {
		if !id.IsZero() {
			out[i] = id.String()
		}
	}
	return out
}

// The world of TestTBatchMatchesReference: four servers, eight users with
// two-server lists, a name nobody registered and one that does not parse.
var (
	refServers = []string{"s1", "s2", "s3", "s4"}
	refGhost   = "R1.h9.ghost"
	refBad     = "R1.h1"
)

func refUser(i int) string { return fmt.Sprintf("R1.h1.u%d", i) }

// refFault is what happens to the servers around one frame.
type refFault struct {
	kind string // "", crash, unreachable, drop, kill, crash2
	srv  int
}

// refSchedule draws seed's frames and the fault before each. Without rough,
// the faults leave every user a server to take its mail (crash or cut one
// server), so no round fails and nothing is spooled; with it, they also drop
// every request of a server, kill one while a round waits on its link, and
// crash two neighbours, whose shared users' copies go to the spool.
func refSchedule(seed int64, rough bool) ([]Request, []refFault) {
	rng := rand.New(rand.NewSource(seed))
	kinds := []string{"", "", "crash", "unreachable"}
	if rough {
		kinds = append(kinds, "drop", "kill", "crash2")
	}
	var frames []Request
	var faults []refFault
	for f := 0; f < 12; f++ {
		req := Request{Op: "tbatch", From: refUser(rng.Intn(8))}
		if rng.Intn(40) == 0 {
			req.From = refBad
		}
		for i := 1 + rng.Intn(16); i > 0; i-- {
			m := BatchMsg{Subject: fmt.Sprintf("f%d-%d", f, i), Body: strings.Repeat("b", rng.Intn(64))}
			for r := rng.Intn(3); r >= 0; r-- {
				switch p := rng.Intn(20); {
				case p == 0:
					m.To = append(m.To, refBad)
				case p < 3:
					m.To = append(m.To, refGhost)
				default:
					m.To = append(m.To, refUser(rng.Intn(8))) // repeats within a message and a frame included
				}
			}
			if rng.Intn(30) == 0 {
				m.To = nil
			}
			req.Msgs = append(req.Msgs, m)
		}
		frames = append(frames, req)
		faults = append(faults, refFault{kind: kinds[rng.Intn(len(kinds))], srv: rng.Intn(len(refServers))})
	}
	return frames, faults
}

// refRun is what one run of a schedule left: every answer, every trace, the
// mailboxes a cold Open of each store finds, and the store files.
type refRun struct {
	answers []string
	ids     [][]string
	traces  []string
	boxes   []string
	files   map[string]string
	rotated bool
}

// runRefSchedule serves the frames one by one through serve on a fresh
// durable server, each behind its fault, and heals the fault after its frame
// (waiting for the spool to drain).
func runRefSchedule(t *testing.T, frames []Request, faults []refFault, rough bool, serve func(*Server, Request) Response) refRun {
	t.Helper()
	dir := t.TempDir()
	s, err := NewServerWith("127.0.0.1:0", refServers, ServerConfig{Cluster: livenet.ClusterConfig{DataDir: dir, StoreShards: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 8; i++ {
		s.cluster.Directory().SetAuthority(names.MustParse(refUser(i)), []string{refServers[i%4], refServers[(i+1)%4]})
	}
	srv := func(i int) *livenet.Server {
		v, _ := s.cluster.Server(refServers[i%len(refServers)])
		return v
	}
	var run refRun
	for f, req := range frames {
		v := srv(faults[f].srv)
		var killed sync.WaitGroup
		switch faults[f].kind {
		case "crash":
			v.Crash()
		case "unreachable":
			v.SetReachable(false)
		case "drop":
			v.SetDropProb(1)
		case "crash2":
			v.Crash()
			srv(faults[f].srv + 1).Crash()
		case "kill": // killed while the frame's first call to it waits on its link
			v.SetLatency(20 * time.Millisecond)
			killed.Add(1)
			go func() {
				defer killed.Done()
				time.Sleep(5 * time.Millisecond)
				if err := v.Kill(); err != nil {
					t.Error(err)
				}
			}()
		}
		resp := serve(s, req)
		killed.Wait()
		run.answers = append(run.answers, fmt.Sprintf("ok %v error %q failed %+v", resp.OK, resp.Error, resp.Failed))
		run.ids = append(run.ids, tbatchIDs(resp))
		switch faults[f].kind {
		case "crash":
			v.Recover()
		case "unreachable":
			v.SetReachable(true)
		case "drop":
			v.SetDropProb(0)
		case "crash2":
			v.Recover()
			srv(faults[f].srv + 1).Recover()
		case "kill":
			v.SetLatency(0)
			if err := v.Restart(); err != nil {
				t.Fatal(err)
			}
		}
		for deadline := time.Now().Add(10 * time.Second); s.cluster.SpoolDepth() > 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("frame %d: the spool still holds %d copies", f, s.cluster.SpoolDepth())
			}
		}
	}
	if !rough && s.cluster.SpoolDepth() != 0 || !rough && s.cluster.Obs().Counters()["submit_spooled"] != 0 {
		t.Fatal("a schedule without rough faults spooled mail")
	}
	// The cluster numbers its messages m1-1, m1-2, … and stamps each as it
	// numbers it, so the traced IDs run from m1-1 to the first one missing.
	for seq := 1; ; seq++ {
		k := obs.Key{Node: 1, Seq: uint64(seq)}
		events, ok := s.cluster.Tracer().Events(k, nil)
		if !ok {
			break
		}
		var stages []string
		for _, e := range events {
			switch {
			case e.Stage != obs.StageResolve:
				stages = append(stages, e.Stage.String()+"@"+e.Where)
			case !rough: // a spooled copy is resolved once per redelivery attempt
				stages = append(stages, e.Stage.String())
			case !slices.Contains(stages, "resolve"):
				stages = append(stages, "resolve")
			}
		}
		slices.Sort(stages)
		run.traces = append(run.traces, k.String()+": "+strings.Join(stages, " "))
	}
	ws, _ := s.cluster.DurabilityStats()
	run.rotated = ws.Rotations > 0 || ws.Compactions > 0
	s.Close()

	run.files = make(map[string]string)
	err = filepath.Walk(dir, func(path string, fi os.FileInfo, err error) error {
		if err != nil || fi.IsDir() {
			return err
		}
		buf, err := os.ReadFile(path)
		rel, _ := filepath.Rel(dir, path)
		run.files[rel] = string(buf)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range refServers {
		st, err := mailstore.Open(filepath.Join(dir, name), 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range st.Users() {
			var box []string
			for _, m := range st.Peek(u) {
				box = append(box, fmt.Sprintf("%v %s %q from %v to %v", m.ID, m.Subject, m.Body, m.From, m.To))
			}
			if rough { // the spool redelivers in its own time
				slices.Sort(box)
			}
			run.boxes = append(run.boxes, fmt.Sprintf("%s %v: %s", name, u, strings.Join(box, "; ")))
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return run
}

// firstDiff describes the first line where got and want part, "" if nowhere.
func firstDiff(got, want []string) string {
	line := func(s []string, i int) string {
		if i < len(s) {
			return s[i]
		}
		return "(none)"
	}
	for i := range max(len(got), len(want)) {
		if g, w := line(got, i), line(want, i); g != w {
			return fmt.Sprintf("line %d:\n got %s\nwant %s", i, g, w)
		}
	}
	return ""
}

// TestTBatchMatchesReference serves seeded schedules of frames through
// opTBatch and through refTBatch and wants the same run from both: the same
// failed items with the same codes and errors, the same IDs (but where an
// item reached some of its recipients: the reference answered "" and
// opTBatch the ID), the same trace stages for every message, and, after a
// cold Open, the same mailboxes — in the same order, and the store files
// byte for byte, when the faults leave no round to fail and nothing to
// spool. The frames mix recipients over servers and shards, repeat them,
// and name users nobody registered and names that do not parse.
func TestTBatchMatchesReference(t *testing.T) {
	partial := 0
	for seed := int64(1); seed <= 12; seed++ {
		rough := seed > 6
		frames, faults := refSchedule(seed, rough)
		want := runRefSchedule(t, frames, faults, rough, refTBatch)
		got := runRefSchedule(t, frames, faults, rough, func(s *Server, req Request) Response {
			return s.opTBatch(req, &connState{srv: s})
		})
		if d := firstDiff(got.answers, want.answers); d != "" {
			t.Fatalf("seed %d: answers differ: %s", seed, d)
		}
		if d := firstDiff(got.boxes, want.boxes); d != "" {
			t.Fatalf("seed %d: mailboxes after a cold Open differ: %s", seed, d)
		}
		delivered := strings.Join(want.boxes, "\n")
		for f := range want.ids {
			for i, id := range want.ids[f] {
				g := got.ids[f][i]
				if id != "" && g != id || id == "" && g != "" && !strings.Contains(delivered, g+" ") {
					t.Fatalf("seed %d frame %d item %d: ID %q, reference %q", seed, f, i, g, id)
				}
				if id == "" && g != "" {
					partial++
				}
			}
		}
		if d := firstDiff(got.traces, want.traces); d != "" {
			t.Fatalf("seed %d: traces differ: %s", seed, d)
		}
		if !rough && !got.rotated && !want.rotated && !reflect.DeepEqual(got.files, want.files) {
			t.Fatalf("seed %d: the store files differ", seed)
		}
	}
	if partial == 0 {
		t.Error("no schedule had an item reach some of its recipients and not others")
	}
}

// TestTBatchOneSyncPerShard: under FsyncAlways, a 16-message frame to one
// recipient is one write and one fsync on the recipient's store, and a frame
// to sixteen recipients one of each per shard it touches (16 of each at the
// parent, one per message, either way).
func TestTBatchOneSyncPerShard(t *testing.T) {
	const shards = 4
	s, err := NewServerWith("127.0.0.1:0", []string{"s1", "s2"}, ServerConfig{
		Cluster: livenet.ClusterConfig{DataDir: t.TempDir(), Fsync: mailstore.FsyncAlways, StoreShards: shards},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	c := newClient(t, s)
	users := make([]string, 16)
	for i := range users {
		users[i] = fmt.Sprintf("R1.h1.u%d", i)
		if err := c.Register(users[i], "s1", "s2"); err != nil {
			t.Fatal(err)
		}
	}
	frame := func(to func(i int) string) (appends, syncs int64) {
		t.Helper()
		msgs := make([]BatchMsg, 16)
		for i := range msgs {
			msgs[i] = BatchMsg{To: []string{to(i)}, Subject: "s", Body: strings.Repeat("b", 512)}
		}
		before, _ := s.cluster.DurabilityStats()
		if resp, err := c.Do(Request{Op: "tbatch", From: users[0], Msgs: msgs}); err != nil || len(resp.Failed) != 0 {
			t.Fatal(err, resp.Failed)
		}
		after, _ := s.cluster.DurabilityStats()
		return after.Appends - before.Appends, after.Syncs - before.Syncs
	}
	if appends, syncs := frame(func(int) string { return users[1] }); appends != 1 || syncs != 1 {
		t.Errorf("16 messages to one recipient: %d writes and %d fsyncs, want 1 and 1", appends, syncs)
	}
	if appends, syncs := frame(func(i int) string { return users[i] }); appends < 1 || appends > shards || syncs != appends {
		t.Errorf("16 messages to 16 recipients: %d writes and %d fsyncs, want one of each per shard touched (≤ %d)", appends, syncs, shards)
	}
	// With the head of the list down the round goes to the first available
	// server, not copy by copy down the list.
	head, _ := s.cluster.Server("s1")
	head.Crash()
	if appends, syncs := frame(func(int) string { return users[1] }); appends != 1 || syncs != 1 {
		t.Errorf("16 messages to one recipient whose first server is down: %d writes and %d fsyncs, want 1 and 1", appends, syncs)
	}
}

// TestTBatchAllocs holds a warmed 16-message frame to one recipient, and the
// getmail that drains it, to a server-side budget: the frame's payload
// string, message list, recipient strings, parsed names and IDs (5), the
// mailbox's array as it grows to 16 messages (5), and now and then a seen
// set's growth (10 measured once they have grown, 12 before). The parent of
// the grouped deposit spent 56: per message also a recipient list decoded,
// one parsed, and an ID string.
func TestTBatchAllocs(t *testing.T) {
	s := newServer(t)
	c := newClient(t, s)
	pipelineRegister(t, c, "R1.h1.alice", "R1.h1.bob")
	sink := sinkConn{wrote: make(chan int, 1)}
	st := &connState{srv: s, conn: sink}
	q := s.pool.NewQueue(0, st)
	defer q.Close()
	serve := func(payload []byte) {
		if !s.servePayload(payload, q, st) {
			t.Fatal("request not queued")
		}
		<-sink.wrote
	}
	msgs := make([]BatchMsg, 16)
	for i := range msgs {
		msgs[i] = BatchMsg{To: []string{"R1.h1.bob"}, Subject: "b", Body: strings.Repeat("b", 512)}
	}
	frame := framePayload(t, mustFrameRequest(t, Request{Op: "tbatch", From: "R1.h1.alice", Msgs: msgs}, 1))
	bob := framePayload(t, mustFrameRequest(t, Request{Op: "getmail", User: "R1.h1.bob"}, 2))
	cycle := func() { serve(frame); serve(bob) }
	cycle()
	// Pooled work items, actor requests and deposit scratch are dropped a
	// quarter of the time under the race detector: there the count is not judged.
	if n := testing.AllocsPerRun(500, cycle); n > 12 && !raceDetector {
		t.Errorf("a 16-message frame and the getmail that drains it: %v allocs, want ≤ 12 (56 at the parent)", n)
	}
	// However many recipients its messages have, a frame decodes into its
	// payload string, its message list and one recipient array (18 at the
	// parent for 16 messages of three recipients).
	for i := range msgs {
		msgs[i].To = []string{"R1.h1.bob", "R1.h1.alice", "R1.h2.carol"}
	}
	wide := framePayload(t, mustFrameRequest(t, Request{Op: "tbatch", From: "R1.h1.alice", Msgs: msgs}, 3))
	if n := testing.AllocsPerRun(100, func() { _, _, _ = DecodeBinaryRequest(wide) }); n != 3 {
		t.Errorf("decoding 16 messages of three recipients: %v allocs, want 3", n)
	}
}
