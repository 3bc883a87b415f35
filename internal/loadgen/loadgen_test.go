package loadgen

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/largemail/largemail/internal/faults"
	"github.com/largemail/largemail/internal/livenet"
	"github.com/largemail/largemail/internal/mail"
	"github.com/largemail/largemail/internal/names"
	"github.com/largemail/largemail/internal/obs"
	"github.com/largemail/largemail/internal/sim"
)

func newSimDriver(t *testing.T, cfg SimConfig) *SimDriver {
	t.Helper()
	d, err := NewSimDriver(cfg)
	if err != nil {
		t.Fatalf("NewSimDriver: %v", err)
	}
	return d
}

func requireClean(t *testing.T, rep Report) {
	t.Helper()
	if !rep.Ok {
		t.Fatalf("auditor violations: %v\nexamples: %v", rep.Violations, rep.Examples)
	}
}

func TestPopulationMapping(t *testing.T) {
	p := Population{Users: 103, Regions: 2, ServersPerRegion: 3}.withDefaults()
	if p.HostsPerRegion != 6 {
		t.Fatalf("HostsPerRegion = %d, want 6", p.HostsPerRegion)
	}
	total := 0
	for gh := 0; gh < p.TotalHosts(); gh++ {
		total += p.UsersOnHost(gh)
	}
	if total != p.Users {
		t.Fatalf("UsersOnHost sums to %d, want %d", total, p.Users)
	}
	// Index → host → region mapping must be consistent with Name.
	for _, u := range []int{0, 1, 11, 12, 50, 102} {
		gh := p.HostOf(u)
		if got := p.RegionOf(u); got != gh/p.HostsPerRegion {
			t.Fatalf("RegionOf(%d) = %d, want %d", u, got, gh/p.HostsPerRegion)
		}
		name := p.Name(u)
		if name.Region != p.RegionName(p.RegionOf(u)) {
			t.Fatalf("Name(%d).Region = %q", u, name.Region)
		}
	}
}

// TestPopulationNameTokens: the table-driven Name renders what the three
// Sprintfs it replaced rendered, inside the token tables and past them, with
// one allocation (the user token).
func TestPopulationNameTokens(t *testing.T) {
	p := Population{Users: 5_000_000, Regions: 3, HostsPerRegion: 700, ServersPerRegion: 4}.withDefaults()
	for _, u := range []int{0, 7, 99, 100, 1023, 1024, 2099, 2100, 123456, 4_999_999} {
		want := names.Name{
			Region: fmt.Sprintf("R%d", p.RegionOf(u)),
			Host:   fmt.Sprintf("h%d", p.HostOf(u)),
			User:   fmt.Sprintf("u%d", u),
		}
		if got := p.Name(u); got != want {
			t.Fatalf("Name(%d) = %v, want %v", u, got, want)
		}
		if got, ok := p.UserIndex(want); !ok || got != u {
			t.Fatalf("UserIndex(%v) = %d, %v", want, got, ok)
		}
	}
	if got := p.RegionName(tokenTableLen + 5); got != fmt.Sprintf("R%d", tokenTableLen+5) {
		t.Fatalf("RegionName past the table = %q", got)
	}
	small := Population{Users: 1_000_000, Regions: 4, HostsPerRegion: 32, ServersPerRegion: 16}
	u := 0
	var sink names.Name
	if n := testing.AllocsPerRun(1000, func() { sink = small.Name(u); u += 997 }); n > 1 {
		t.Errorf("Population.Name: %v allocs, want <= 1", n)
	}
	_ = sink
}

// TestAuditorsLedgerText pins the violation text the value-keyed ledger
// renders — "<id>@u<n>", losses in the order of that text — and that
// ledgering and crediting a copy allocates nothing of its own.
func TestAuditorsLedgerText(t *testing.T) {
	a := NewAuditors(2, false)
	a.RecordSubmit("m2-1", []int{10, 2})
	a.RecordSubmit("m10-1", []int{2})
	a.RecordSubmit("m1-1", []int{4})
	a.CreditRetrieved(4, []string{"m1-1", "m1-1", "m9-9"})
	a.FinishOutstanding()
	want := []string{
		"duplicate: m1-1@u4",
		"unledgered: m9-9@u4",
		"lost: m10-1@u2",
		"lost: m2-1@u10",
		"lost: m2-1@u2",
	}
	if got := a.Violations(); !reflect.DeepEqual(got, want) {
		t.Fatalf("violations = %q, want %q", got, want)
	}

	b := NewAuditors(2, false)
	rcpts := make([]int, 64)
	for i := range rcpts {
		rcpts[i] = i * 3
	}
	ids := make([]string, 512)
	for i := range ids {
		ids[i] = fmt.Sprintf("m7-%d", i+1)
	}
	round := 0
	cycle := func() {
		id := ids[round%len(ids)]
		round++
		b.RecordSubmit(id, rcpts)
		for _, u := range rcpts {
			b.CreditRetrieved(u, ids[(round-1)%len(ids):][:1])
		}
	}
	for i := 0; i < 256; i++ { // grow the maps first
		cycle()
	}
	// 64 copies a cycle; AllocsPerRun floors the mean, so what is left of
	// the seen-set's growth (a handful of table splits over 6 400 inserts)
	// reads as 0 while one allocation per copy would read as 64.
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("RecordSubmit + CreditRetrieved of 64 copies: %v allocs, want 0", n)
	}
	if !b.Ok() || b.Outstanding() != 0 {
		t.Fatalf("ledger not clean: %v, %d outstanding", b.Violations(), b.Outstanding())
	}
}

// TestLedgerVerdicts drives one script through the auditors' string methods
// and through the value path the engine takes — parse once, ledger the key,
// hand a retrieval its IDs as values — and requires from both the verdicts
// the text-keyed ledger gave: a clean copy, a duplicate, an unledgered copy,
// a lost one, a retrieval before its submit (unledgered, then lost), and
// text that is no message ID (unledgered under its text). A submit under
// such text is unledgered too; it never becomes the zero key.
func TestLedgerVerdicts(t *testing.T) {
	type step struct {
		submit bool
		id     string
		u      int
	}
	script := []step{
		{true, "m1-1", 1}, {false, "m1-1", 1}, // clean
		{true, "m1-2", 2}, {false, "m1-2", 2}, {false, "m1-2", 2}, // duplicate
		{false, "m5-5", 3},                    // unledgered
		{true, "m1-3", 4},                     // lost
		{false, "m1-4", 5}, {true, "m1-4", 5}, // retrieved before its submit
		{false, "not-an-id", 6},
	}
	wantCounts := map[string]int{ViolationDuplicate: 1, ViolationUnledgered: 3, ViolationLost: 2}
	wantText := []string{
		"duplicate: m1-2@u2",
		"unledgered: m5-5@u3",
		"unledgered: m1-4@u5",
		"unledgered: not-an-id@u6",
		"lost: m1-3@u4",
		"lost: m1-4@u5",
	}
	byText, byValue := NewAuditors(2, false), NewAuditors(2, false)
	for _, st := range script {
		k, ok := obs.ParseKey(st.id)
		switch {
		case st.submit:
			byText.RecordSubmit(st.id, []int{st.u})
			if ok {
				byValue.recordSubmit(k, []int{st.u})
			} else {
				byValue.RecordSubmit(st.id, []int{st.u})
			}
		default:
			byText.CreditRetrieved(st.u, []string{st.id})
			if ok {
				id := mail.MessageID{Node: names.NodeID(k.Node), Seq: k.Seq}
				byValue.RecordRetrieve(st.u, RetrieveResult{IDs: []mail.MessageID{id}})
			} else {
				byValue.CreditRetrieved(st.u, []string{st.id})
			}
		}
	}
	for name, a := range map[string]*Auditors{"string methods": byText, "values": byValue} {
		a.FinishOutstanding()
		if got := a.Counts(); !reflect.DeepEqual(got, wantCounts) {
			t.Errorf("%s: counts = %v, want %v", name, got, wantCounts)
		}
		if got := a.Violations(); !reflect.DeepEqual(got, wantText) {
			t.Errorf("%s: violations = %q, want %q", name, got, wantText)
		}
	}

	a := NewAuditors(2, false)
	a.RecordSubmit("m01-1", []int{7, 8})
	a.FinishOutstanding()
	if want := []string{"unledgered: m01-1@u7", "unledgered: m01-1@u8"}; !reflect.DeepEqual(a.Violations(), want) {
		t.Errorf("submit under non-canonical text: violations = %q, want %q", a.Violations(), want)
	}
	if len(a.copies) != 0 {
		t.Errorf("submit under non-canonical text ledgered %v", a.copies)
	}
}

func TestAuditorsLedger(t *testing.T) {
	m1, m2 := mail.MessageID{Node: 1, Seq: 1}, mail.MessageID{Node: 1, Seq: 2}
	a := NewAuditors(2, true)
	a.RecordSubmit(m1.String(), []int{1, 2})
	a.RecordRetrieve(1, RetrieveResult{IDs: []mail.MessageID{m1}, Polls: 2, LastChecking: 10})
	if !a.Ok() {
		t.Fatalf("clean retrieve flagged: %v", a.Violations())
	}
	// Duplicate copy.
	a.RecordRetrieve(1, RetrieveResult{IDs: []mail.MessageID{m1}, Polls: 1, LastChecking: 20})
	if a.Counts()[ViolationDuplicate] != 1 {
		t.Fatalf("duplicate not flagged: %v", a.Counts())
	}
	// Unledgered copy.
	a.RecordRetrieve(1, RetrieveResult{IDs: []mail.MessageID{{Node: 9, Seq: 9}}, Polls: 1, LastChecking: 30})
	if a.Counts()[ViolationUnledgered] != 1 {
		t.Fatalf("unledgered not flagged: %v", a.Counts())
	}
	// LastCheckingTime going backwards.
	a.RecordRetrieve(1, RetrieveResult{Polls: 1, LastChecking: 5})
	if a.Counts()[ViolationMonotone] != 1 {
		t.Fatalf("monotone regression not flagged: %v", a.Counts())
	}
	// Poll inefficiency: second retrieval of user 2 must poll exactly 1.
	a.RecordRetrieve(2, RetrieveResult{IDs: []mail.MessageID{m1}, Polls: 2, LastChecking: 10})
	a.RecordRetrieve(2, RetrieveResult{Polls: 3, LastChecking: 20})
	if a.Counts()[ViolationPolls] != 1 {
		t.Fatalf("poll inefficiency not flagged: %v", a.Counts())
	}
	// Outstanding copy (user 2 got its copy above; submit one that nobody
	// retrieves).
	a.RecordSubmit(m2.String(), []int{3})
	a.FinishOutstanding()
	if a.Counts()[ViolationLost] != 1 {
		t.Fatalf("loss not flagged: %v", a.Counts())
	}
	a.RecordTraceGaps([]obs.Key{m2.TraceKey()})
	if a.Counts()[ViolationTraceGap] != 1 {
		t.Fatalf("trace gap not flagged: %v", a.Counts())
	}
}

func TestEngineFailureFreeSim(t *testing.T) {
	drv := newSimDriver(t, SimConfig{
		Seed: 1,
		Pop:  Population{Users: 200, Regions: 2, ServersPerRegion: 3},
	})
	eng := New(drv, Config{Seed: 1, Messages: 120, Sessions: 16})
	rep := eng.Run()
	requireClean(t, rep)
	if !eng.Auditors().PollStrict() {
		t.Fatal("failure-free run must keep the strict poll audit armed")
	}
	if rep.Submitted != 120 {
		t.Fatalf("Submitted = %d, want 120", rep.Submitted)
	}
	if rep.Copies < rep.Submitted {
		t.Fatalf("Copies = %d < Submitted = %d", rep.Copies, rep.Submitted)
	}
	if rep.Retrievals == 0 || rep.Polls == 0 {
		t.Fatalf("no retrieval activity: %+v", rep)
	}
	snap := drv.Snapshot()
	h, ok := snap.Histograms["lat_e2e"]
	if !ok || h.Count == 0 {
		t.Fatalf("lat_e2e histogram missing or empty: %+v", snap.Histograms)
	}
	if len(rep.Loads) != drv.Population().TotalServers() {
		t.Fatalf("ServerLoads = %d entries, want %d", len(rep.Loads), drv.Population().TotalServers())
	}
	var deposits int64
	for _, l := range rep.Loads {
		if l.Load > l.MaxLoad {
			t.Fatalf("server %s overloaded: %d > %d", l.Name, l.Load, l.MaxLoad)
		}
		deposits += l.Deposits
	}
	if deposits < int64(rep.Copies) {
		t.Fatalf("observed deposits %d < committed copies %d", deposits, rep.Copies)
	}
}

// TestEngineDeterminism: two runs of one seed give the same Report and the
// same Snapshot — every count, ρ, gauge and histogram quantile, compared at
// full precision — failure-free, under a compiled fault schedule, and under
// the rebalance policy on a hot spot, where migrations and per-server ρ
// gauges join the snapshot.
func TestEngineDeterminism(t *testing.T) {
	for _, pt := range []struct {
		name   string
		sim    SimConfig
		eng    Config
		faults bool
	}{
		{"clean", SimConfig{Seed: 9, Pop: Population{Users: 150, Regions: 2, ServersPerRegion: 3}},
			Config{Seed: 9, Messages: 80, Sessions: 12}, false},
		{"faults", SimConfig{Seed: 4, Pop: Population{Users: 200, Regions: 2, ServersPerRegion: 3}},
			Config{Seed: 4, Messages: 120, Sessions: 16}, true},
		{"rebalance", SimConfig{Seed: 3, Pop: Population{Users: 4000, Regions: 2, ServersPerRegion: 4},
			Policy: "rebalance", ServiceRate: 2, RetryTimeout: 200 * sim.Unit},
			Config{Seed: 3, Messages: 600, Sessions: 64, Ticks: 100, Profile: Profile{Kind: "hotspot"}}, false},
	} {
		t.Run(pt.name, func(t *testing.T) {
			run := func() (Report, obs.Snapshot) {
				drv := newSimDriver(t, pt.sim)
				cfg := pt.eng
				if pt.faults {
					spec := drv.FaultSurface()
					spec.Seed, spec.Ticks = pt.eng.Seed, 60
					spec.Crashes, spec.LinkFaults, spec.Latencies, spec.Drops = 3, 2, 2, 2
					sched, err := faults.Compile(spec)
					if err != nil {
						t.Fatalf("Compile: %v", err)
					}
					cfg.Schedule = &sched
				}
				return New(drv, cfg).Run(), drv.Snapshot()
			}
			a, aSnap := run()
			b, bSnap := run()
			requireClean(t, a)
			requireSameRun(t, a, b, aSnap, bSnap)
			if pt.sim.Policy != "" && aSnap.Counters["migrations_total"] == 0 {
				t.Fatal("the rebalance point migrated nobody")
			}
		})
	}
}

// requireSameRun fails unless two runs of one seed reported the same thing,
// naming the first instrument that differs.
func requireSameRun(t *testing.T, a, b Report, aSnap, bSnap obs.Snapshot) {
	t.Helper()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different reports:\n%+v\n%+v", a, b)
	}
	if reflect.DeepEqual(aSnap, bSnap) {
		return
	}
	for k, v := range aSnap.Counters {
		if bSnap.Counters[k] != v {
			t.Fatalf("same seed, counter %s: %d, then %d", k, v, bSnap.Counters[k])
		}
	}
	for k, v := range aSnap.Gauges {
		if bSnap.Gauges[k] != v {
			t.Fatalf("same seed, gauge %s: %d, then %d", k, v, bSnap.Gauges[k])
		}
	}
	for k, v := range aSnap.Histograms {
		if !reflect.DeepEqual(bSnap.Histograms[k], v) {
			t.Fatalf("same seed, histogram %s: %+v, then %+v", k, v, bSnap.Histograms[k])
		}
	}
	t.Fatalf("same seed, different snapshots:\n%+v\n%+v", aSnap, bSnap)
}

func TestEngineWithFaultsSim(t *testing.T) {
	drv := newSimDriver(t, SimConfig{
		Seed: 4,
		Pop:  Population{Users: 200, Regions: 2, ServersPerRegion: 3},
	})
	spec := drv.FaultSurface()
	spec.Seed = 4
	spec.Ticks = 60
	spec.Crashes = 3
	spec.LinkFaults = 2
	spec.Latencies = 2
	spec.Drops = 2
	sched, err := faults.Compile(spec)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if len(sched.Events) == 0 {
		t.Fatal("empty fault schedule")
	}
	eng := New(drv, Config{Seed: 4, Messages: 100, Sessions: 16, Schedule: &sched})
	rep := eng.Run()
	// No loss, no duplicates, no trace gaps — even under crash windows. The
	// poll audit is auto-disabled (failures legitimately force re-polls).
	requireClean(t, rep)
	if eng.Auditors().PollStrict() {
		t.Fatal("faulted run must not arm the strict poll audit")
	}
	if rep.Submitted != 100 {
		t.Fatalf("Submitted = %d, want 100", rep.Submitted)
	}
}

func TestEngineFailureFreeLive(t *testing.T) {
	drv, err := NewLiveDriver(LiveConfig{
		Pop:  Population{Users: 60, Regions: 2, ServersPerRegion: 2},
		Tick: time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewLiveDriver: %v", err)
	}
	defer drv.Close()
	eng := New(drv, Config{Seed: 3, Messages: 40, Sessions: 8, Ticks: 20})
	rep := eng.Run()
	requireClean(t, rep)
	if rep.Submitted != 40 {
		t.Fatalf("Submitted = %d, want 40", rep.Submitted)
	}
	if len(rep.Loads) != 4 {
		t.Fatalf("ServerLoads = %d entries, want 4", len(rep.Loads))
	}
}

func TestEngineWithFaultsLive(t *testing.T) {
	drv, err := NewLiveDriver(LiveConfig{
		Pop:  Population{Users: 60, Regions: 2, ServersPerRegion: 3},
		Tick: time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewLiveDriver: %v", err)
	}
	defer drv.Close()
	spec := drv.FaultSurface()
	spec.Seed = 11
	spec.Ticks = 40
	spec.Crashes = 2
	spec.Drops = 2
	sched, err := faults.Compile(spec)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	eng := New(drv, Config{Seed: 11, Messages: 30, Sessions: 6, Schedule: &sched})
	rep := eng.Run()
	requireClean(t, rep)
}

// Test hooks: what the tests read of the auditors and drivers.

// PollStrict reports whether the poll-efficiency check is armed.
func (a *Auditors) PollStrict() bool { return a.pollStrict }

// Outstanding reports how many committed copies are still owed.
func (a *Auditors) Outstanding() int {
	n := 0
	for _, st := range a.copies {
		if st&copyOwed != 0 {
			n++
		}
	}
	return n
}

// Cluster exposes the underlying cluster for tests.
func (d *LiveDriver) Cluster() *livenet.Cluster { return d.cluster }

// UserName returns the user's current name (migrations rename).
func (d *SimDriver) UserName(u int) names.Name {
	if a, ok := d.agents[u]; ok {
		return a.User()
	}
	return d.pop.Name(u)
}
