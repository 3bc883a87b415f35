package loadgen

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/largemail/largemail/internal/faults"
	"github.com/largemail/largemail/internal/names"
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

func TestAuditorsLedger(t *testing.T) {
	a := NewAuditors(2, true)
	a.RecordSubmit("m1", []int{1, 2})
	a.RecordRetrieve(1, RetrieveResult{IDs: []string{"m1"}, Polls: 2, LastChecking: 10})
	if !a.Ok() {
		t.Fatalf("clean retrieve flagged: %v", a.Violations())
	}
	// Duplicate copy.
	a.RecordRetrieve(1, RetrieveResult{IDs: []string{"m1"}, Polls: 1, LastChecking: 20})
	if a.Counts()[ViolationDuplicate] != 1 {
		t.Fatalf("duplicate not flagged: %v", a.Counts())
	}
	// Unledgered copy.
	a.RecordRetrieve(1, RetrieveResult{IDs: []string{"ghost"}, Polls: 1, LastChecking: 30})
	if a.Counts()[ViolationUnledgered] != 1 {
		t.Fatalf("unledgered not flagged: %v", a.Counts())
	}
	// LastCheckingTime going backwards.
	a.RecordRetrieve(1, RetrieveResult{Polls: 1, LastChecking: 5})
	if a.Counts()[ViolationMonotone] != 1 {
		t.Fatalf("monotone regression not flagged: %v", a.Counts())
	}
	// Poll inefficiency: second retrieval of user 2 must poll exactly 1.
	a.RecordRetrieve(2, RetrieveResult{IDs: []string{"m1"}, Polls: 2, LastChecking: 10})
	a.RecordRetrieve(2, RetrieveResult{Polls: 3, LastChecking: 20})
	if a.Counts()[ViolationPolls] != 1 {
		t.Fatalf("poll inefficiency not flagged: %v", a.Counts())
	}
	// Outstanding copy (user 2 got its copy above; submit one that nobody
	// retrieves).
	a.RecordSubmit("m2", []int{3})
	a.FinishOutstanding()
	if a.Counts()[ViolationLost] != 1 {
		t.Fatalf("loss not flagged: %v", a.Counts())
	}
	a.RecordTraceGaps([]string{"m2"})
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

func TestEngineDeterminism(t *testing.T) {
	run := func() Report {
		drv := newSimDriver(t, SimConfig{
			Seed: 9,
			Pop:  Population{Users: 150, Regions: 2, ServersPerRegion: 3},
		})
		eng := New(drv, Config{Seed: 9, Messages: 80, Sessions: 12})
		return eng.Run()
	}
	a, b := run(), run()
	if a.Submitted != b.Submitted || a.Copies != b.Copies ||
		a.Retrievals != b.Retrievals || a.Polls != b.Polls ||
		a.Duplicates != b.Duplicates || a.Ticks != b.Ticks {
		t.Fatalf("same seed, different runs:\n%+v\n%+v", a, b)
	}
	requireClean(t, a)
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
