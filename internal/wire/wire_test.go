package wire

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/largemail/largemail/internal/livenet"
	"github.com/largemail/largemail/internal/obs"
)

// newServer starts a three-server wire daemon on a loopback port.
func newServer(t *testing.T) *Server {
	t.Helper()
	s, err := NewServer("127.0.0.1:0", []string{"s1", "s2", "s3"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func newClient(t *testing.T, s *Server) *Client {
	t.Helper()
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func TestNewServerValidation(t *testing.T) {
	if _, err := NewServer("127.0.0.1:0", nil); err == nil {
		t.Error("no server names accepted")
	}
	if _, err := NewServer("127.0.0.1:0", []string{"a", "a"}); err == nil {
		t.Error("duplicate server names accepted")
	}
}

// TestNewServerOpenFailureLeavesNothing: the servers' stores open
// concurrently, and one that fails to open (here, a corrupt manifest) fails
// NewServerWith with its error and leaves no store open — no file descriptor
// of any of the eight — and no goroutine behind.
func TestNewServerOpenFailureLeavesNothing(t *testing.T) {
	fds := func() int {
		entries, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skip("no /proc/self/fd to count open files in")
		}
		return len(entries)
	}
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "s5"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "s5", "MANIFEST.json"), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	servers := []string{"s1", "s2", "s3", "s4", "s5", "s6", "s7", "s8"}
	cfg := ServerConfig{Cluster: livenet.ClusterConfig{DataDir: dir, StoreShards: 4}}
	files, goroutines := fds(), runtime.NumGoroutine()
	s, err := NewServerWith("127.0.0.1:0", servers, cfg)
	if err == nil {
		s.Close()
		t.Fatal("NewServerWith started over a corrupt store")
	}
	if !strings.Contains(err.Error(), "bad manifest") {
		t.Errorf("error %q does not name the corrupt manifest", err)
	}
	if n := fds(); n > files {
		t.Errorf("%d files open after the failed start, %d before", n, files)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goroutines; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the failed start, %d before", runtime.NumGoroutine(), goroutines)
		}
	}
	// The seven stores that opened were closed whole: they open again, and
	// with the manifest fixed the server starts over all eight.
	if err := os.Remove(filepath.Join(dir, "s5", "MANIFEST.json")); err != nil {
		t.Fatal(err)
	}
	if s, err = NewServerWith("127.0.0.1:0", servers, cfg); err != nil {
		t.Fatal(err)
	}
	s.Close()
}

func TestSubmitGetMailRoundTrip(t *testing.T) {
	s := newServer(t)
	c := newClient(t, s)
	if err := c.Register("R1.h1.alice"); err != nil {
		t.Fatal(err)
	}
	if err := c.Register("R1.h2.bob", "s2", "s1"); err != nil {
		t.Fatal(err)
	}
	id, err := c.Submit("R1.h2.bob", []string{"R1.h1.alice"}, "hi", "over tcp")
	if err != nil {
		t.Fatal(err)
	}
	if id == "" {
		t.Error("empty message ID")
	}
	msgs, err := c.GetMail("R1.h1.alice")
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 1 || msgs[0].Subject != "hi" || msgs[0].From != "R1.h2.bob" {
		t.Fatalf("GetMail = %+v", msgs)
	}
	// Idempotent second read.
	msgs, err = c.GetMail("R1.h1.alice")
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 0 {
		t.Errorf("second GetMail = %v", msgs)
	}
}

func TestFailoverOverWire(t *testing.T) {
	s := newServer(t)
	c := newClient(t, s)
	if err := c.Register("R1.h1.alice", "s1", "s2"); err != nil {
		t.Fatal(err)
	}
	if err := c.Register("R1.h2.bob", "s2"); err != nil {
		t.Fatal(err)
	}
	if err := c.SetAvailability("s1", false); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit("R1.h2.bob", []string{"R1.h1.alice"}, "fo", "b"); err != nil {
		t.Fatal(err)
	}
	status, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]ServerStatus{}
	for _, st := range status.Servers {
		byName[st.Name] = st
	}
	if byName["s1"].Up {
		t.Error("s1 reported up after crash")
	}
	if byName["s2"].Deposits != 1 {
		t.Errorf("s2 deposits = %d, want 1 (failover)", byName["s2"].Deposits)
	}
	msgs, err := c.GetMail("R1.h1.alice")
	if err != nil || len(msgs) != 1 {
		t.Fatalf("GetMail = %v, %v", msgs, err)
	}
	if err := c.SetAvailability("s1", true); err != nil {
		t.Fatal(err)
	}
}

func TestCheckMailOp(t *testing.T) {
	s := newServer(t)
	c := newClient(t, s)
	if err := c.Register("R1.h1.alice", "s1"); err != nil {
		t.Fatal(err)
	}
	if err := c.Register("R1.h2.bob", "s1"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit("R1.h2.bob", []string{"R1.h1.alice"}, "s", "b"); err != nil {
		t.Fatal(err)
	}
	resp, err := c.Do(Request{Op: "checkmail", User: "R1.h1.alice", Server: "s1"})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Messages) != 1 {
		t.Errorf("checkmail = %+v", resp)
	}
}

func TestProtocolErrors(t *testing.T) {
	s := newServer(t)
	c := newClient(t, s)
	cases := []Request{
		{Op: "nope"},
		{Op: "register", User: "not-a-name"},
		{Op: "register", User: "R1.h1.x", Servers: []string{"ghost"}},
		{Op: "submit", From: "bad"},
		{Op: "submit", From: "R1.h1.a"}, // no recipients
		{Op: "submit", From: "R1.h1.a", To: []string{"bad"}},
		{Op: "checkmail", User: "R1.h1.a", Server: "ghost"},
		{Op: "checkmail", User: "bad", Server: "s1"},
		{Op: "getmail", User: "bad"},
		{Op: "getmail", User: "R1.h1.unregistered"},
		{Op: "crash", Server: "ghost"},
	}
	for _, req := range cases {
		if _, err := c.Do(req); err == nil {
			t.Errorf("request %+v succeeded, want error", req)
		}
	}
	// The connection stays usable after errors.
	if err := c.Register("R1.h1.alice"); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentClients(t *testing.T) {
	s := newServer(t)
	admin := newClient(t, s)
	if err := admin.Register("R1.h1.alice"); err != nil {
		t.Fatal(err)
	}
	const clients = 6
	const perClient = 10
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial(s.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			from := "R1.h9.sender" + string(rune('a'+i))
			for j := 0; j < perClient; j++ {
				if _, err := c.Submit(from, []string{"R1.h1.alice"}, "c", "b"); err != nil {
					errs <- err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	msgs, err := admin.GetMail("R1.h1.alice")
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != clients*perClient {
		t.Errorf("received %d of %d", len(msgs), clients*perClient)
	}
}

func TestCloseIdempotentAndDialAfterClose(t *testing.T) {
	s, err := NewServer("127.0.0.1:0", []string{"s1"})
	if err != nil {
		t.Fatal(err)
	}
	addr := s.Addr()
	s.Close()
	s.Close()
	if _, err := Dial(addr); err == nil {
		t.Error("dial after close succeeded")
	}
}

// Robustness: a stream of arbitrary (mostly invalid) requests never kills
// the server or wedges the connection.
func TestServerSurvivesGarbageRequests(t *testing.T) {
	s := newServer(t)
	c := newClient(t, s)
	garbage := []Request{
		{},
		{Op: "submit"},
		{Op: "register", User: strings.Repeat("x", 300)},
		{Op: "submit", From: "R1.h.u", To: []string{""}},
		{Op: "checkmail"},
		{Op: "getmail"},
		{Op: "recover"},
		{Op: "status", User: "ignored-field"},
	}
	for i, req := range garbage {
		resp, err := c.Do(req)
		if req.Op == "status" {
			if err != nil {
				t.Errorf("case %d: status with extra fields failed: %v", i, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("case %d (%+v): accepted", i, req)
		}
		_ = resp
	}
	// JSON frames that decode to no verb, interleaved with valid traffic: an
	// empty op, and a hello, which is no verb.
	bp := getFrameBuf()
	defer putFrameBuf(bp)
	for _, js := range []string{"{}", "null", `{"op":""}`, `{"op":"hello","binary":true}`} {
		frame, err := appendFrame(nil, append([]byte{binOpJSON, 1, 0, 0, 0}, js...))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		payload, err := c.cr.readFrame(bp)
		if err != nil {
			t.Fatalf("no response to %s: %v", js, err)
		}
		if resp, _, err := DecodeBinaryResponse(payload); err != nil || resp.OK || !strings.Contains(resp.Error, "unknown op") {
			t.Fatalf("%s answered %+v, %v", js, resp, err)
		}
	}
	if err := c.Register("R1.h1.still-works"); err != nil {
		t.Fatal(err)
	}
}

func TestStatusSnapshotStructured(t *testing.T) {
	s := newServer(t)
	c := newClient(t, s)
	if err := c.Register("R1.h1.alice"); err != nil {
		t.Fatal(err)
	}
	if err := c.Register("R1.h1.bob"); err != nil {
		t.Fatal(err)
	}
	id, err := c.Submit("R1.h1.alice", []string{"R1.h1.bob"}, "hi", "body")
	if err != nil || id == "" {
		t.Fatalf("submit: id=%q err=%v", id, err)
	}
	if _, err := c.GetMail("R1.h1.bob"); err != nil {
		t.Fatal(err)
	}

	snap, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version != obs.SnapshotVersion {
		t.Errorf("version = %d, want %d", snap.Version, obs.SnapshotVersion)
	}
	if len(snap.Servers) != 3 {
		t.Errorf("servers = %+v, want 3 rows", snap.Servers)
	}
	// One deposit happened somewhere: the per-server counters carry it.
	var deposits int64
	for _, row := range snap.Servers {
		deposits += snap.Counters[row.Name+".deposits"]
	}
	if deposits != 1 {
		t.Errorf("summed <name>.deposits = %d, want 1", deposits)
	}
	if _, ok := snap.Gauges["spool_depth"]; !ok {
		t.Errorf("gauges = %v, want spool_depth", snap.Gauges)
	}
	// The lifecycle tracer fed the per-stage histograms end to end.
	for _, h := range []string{"lat_deposit", "lat_retrieve", "lat_e2e"} {
		hs, ok := snap.Histograms[h]
		if !ok || hs.Count == 0 {
			t.Errorf("histogram %s missing or empty: %+v", h, hs)
		}
	}
	if hs := snap.Histograms["lat_e2e"]; hs.P50 <= 0 || hs.P99 < hs.P50 {
		t.Errorf("lat_e2e quantiles implausible: %+v", hs)
	}
}

// TestStatusReportsHeap: a status answer says how much heap the process
// holds and how many collections it has run — the reading a soak of a
// running daemon takes — without adding either to the cluster's registry,
// whose snapshots the simulations compare byte for byte.
func TestStatusReportsHeap(t *testing.T) {
	s := newServer(t)
	runtime.GC() // at least one cycle to count, whatever ran before
	snap, err := newClient(t, s).Status()
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []string{"go_heap_objects_bytes", "go_gc_cycles"} {
		if v := snap.Gauges[g]; v <= 0 {
			t.Errorf("gauge %s = %d, want > 0", g, v)
		}
		if _, ok := s.Cluster().Snapshot().Gauges[g]; ok {
			t.Errorf("gauge %s is in the cluster's registry", g)
		}
	}
}

// TestGetMailDoesNotRetainBodies: the server keeps one agent per user for as
// long as it runs, so whatever an agent holds after a getmail is held
// forever. Submit→getmail cycles may grow the heap by what dedup and the
// tracer remember per message (IDs, a trace record), never by the bodies.
func TestGetMailDoesNotRetainBodies(t *testing.T) {
	s := newServer(t)
	c := newClient(t, s)
	for _, u := range []string{"R1.h1.from", "R1.h1.to"} {
		if err := c.Register(u); err != nil {
			t.Fatal(err)
		}
	}
	const cycles, bodySize = 400, 16 << 10
	body := strings.Repeat("b", bodySize)
	cycle := func() {
		if _, err := c.Submit("R1.h1.from", []string{"R1.h1.to"}, "s", body); err != nil {
			t.Fatal(err)
		}
		got, err := c.GetMail("R1.h1.to")
		if err != nil || len(got) != 1 || len(got[0].Body) != bodySize {
			t.Fatalf("getmail = %d messages, err %v", len(got), err)
		}
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	for i := 0; i < 20; i++ { // fill pools, create the agent and the mailbox
		cycle()
	}
	before := heap()
	for i := 0; i < cycles; i++ {
		cycle()
	}
	grown := int64(heap()) - int64(before)
	if limit := int64(cycles * bodySize / 4); grown > limit {
		t.Errorf("heap grew %d B over %d cycles of %d B bodies (limit %d): bodies are being retained",
			grown, cycles, bodySize, limit)
	}
}
