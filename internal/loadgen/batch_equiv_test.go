package loadgen

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"github.com/largemail/largemail/internal/mail"
	"github.com/largemail/largemail/internal/sim"
)

// recordingDriver wraps a Driver and journals every commit and retrieval in
// call order, giving equivalence tests a full delivery trace to compare.
type recordingDriver struct {
	Driver
	log []string
}

func (r *recordingDriver) Submit(from int, to []int, subject, body string) (string, error) {
	id, err := r.Driver.Submit(from, to, subject, body)
	if err == nil {
		r.log = append(r.log, fmt.Sprintf("submit u%d %s -> %v", from, id, to))
	}
	return id, err
}

func (r *recordingDriver) Retrieve(u int) RetrieveResult {
	res := r.Driver.Retrieve(u)
	if len(res.IDs) > 0 {
		r.log = append(r.log, fmt.Sprintf("retrieve u%d %s", u, idList(res.IDs)))
	}
	return res
}

// idList is ids as comma-separated text.
func idList(ids []mail.MessageID) string {
	text := make([]string, len(ids))
	for i, id := range ids {
		text[i] = id.String()
	}
	return strings.Join(text, ",")
}

// runTraced runs one seeded closed loop over a fresh SimDriver and returns
// the delivery trace, the aggregated counter snapshot, and the report.
func runTraced(t *testing.T, seed int64, mutate func(*SimConfig)) ([]string, map[string]int64, Report) {
	t.Helper()
	cfg := SimConfig{
		Seed: seed,
		Pop: Population{
			Users:            240,
			Regions:          2,
			ServersPerRegion: 3,
			AuthorityLen:     2,
		},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	drv, err := NewSimDriver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordingDriver{Driver: drv}
	rep := New(rec, Config{
		Seed:          seed,
		Messages:      120,
		Sessions:      16,
		Ticks:         60,
		RetrieveEvery: 4,
	}).Run()
	counters := drv.Snapshot().Counters
	return rec.log, counters, rep
}

// deliveredByUser reduces a trace to each user's sorted set of retrieved
// message IDs — the order-insensitive delivery outcome.
func deliveredByUser(log []string) map[string][]string {
	out := make(map[string][]string)
	for _, line := range log {
		f := strings.Fields(line)
		if f[0] != "retrieve" {
			continue
		}
		out[f[1]] = append(out[f[1]], strings.Split(f[2], ",")...)
	}
	for u := range out {
		sort.Strings(out[u])
	}
	return out
}

// TestBatchSizeOneBitExact is the seeded equivalence property: across seeds,
// a BatchSize=1 deployment produces the exact delivery trace — same commits,
// same retrievals, same order — and the same counter totals as an
// unconfigured (pre-batching) one. This is what pins "size-1 batch ≡ today's
// behavior" at the whole-system level, not just per-server.
func TestBatchSizeOneBitExact(t *testing.T) {
	for _, seed := range []int64{1, 7, 23} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			defLog, defCtr, defRep := runTraced(t, seed, nil)
			oneLog, oneCtr, oneRep := runTraced(t, seed, func(c *SimConfig) {
				c.BatchSize = 1
				c.FlushInterval = 5 * sim.Unit
			})
			if !defRep.Ok || !oneRep.Ok {
				t.Fatalf("audits: default ok=%v batch-1 ok=%v (%v / %v)",
					defRep.Ok, oneRep.Ok, defRep.Violations, oneRep.Violations)
			}
			if !reflect.DeepEqual(defLog, oneLog) {
				t.Fatalf("delivery traces differ (default %d events, batch-1 %d)",
					len(defLog), len(oneLog))
			}
			if !reflect.DeepEqual(defCtr, oneCtr) {
				for k, v := range defCtr {
					if oneCtr[k] != v {
						t.Errorf("counter %s: default %d, batch-1 %d", k, v, oneCtr[k])
					}
				}
				for k, v := range oneCtr {
					if _, ok := defCtr[k]; !ok {
						t.Errorf("counter %s only in batch-1 run: %d", k, v)
					}
				}
			}
		})
	}
}

// TestBatchSixteenSameDeliveries: batching changes envelope timing, so the
// trace order may differ — but every user must end with exactly the same set
// of delivered message IDs, audits clean, and the batched run must actually
// coalesce (fewer relay envelopes than per-copy transfers).
func TestBatchSixteenSameDeliveries(t *testing.T) {
	seed := int64(7)
	oneLog, _, oneRep := runTraced(t, seed, func(c *SimConfig) {
		c.BatchSize = 1
		c.FlushInterval = 5 * sim.Unit
	})
	bLog, bCtr, bRep := runTraced(t, seed, func(c *SimConfig) {
		c.BatchSize = 16
		c.FlushInterval = 5 * sim.Unit
	})
	if !oneRep.Ok || !bRep.Ok {
		t.Fatalf("audits: batch-1 ok=%v batch-16 ok=%v (%v / %v)",
			oneRep.Ok, bRep.Ok, oneRep.Violations, bRep.Violations)
	}
	if one, b := deliveredByUser(oneLog), deliveredByUser(bLog); !reflect.DeepEqual(one, b) {
		t.Errorf("delivered sets differ between batch-1 and batch-16")
	}
	env, out := bCtr["srv_relay_envelopes"], bCtr["srv_transfers_out"]
	if out == 0 {
		t.Fatal("batch-16 run relayed nothing; workload too local to test batching")
	}
	if env >= out {
		t.Errorf("relay_envelopes = %d not below transfers_out = %d; nothing coalesced", env, out)
	}
}

// TestResolveFreshUnderReconfig fires MigrateUser and RemoveServer from
// OnTick while the closed loop is live. Every copy must be routed on the
// authority list the directory holds at that moment: the auditors'
// exactly-once/no-loss ledger is the stale-deposit oracle (a deposit routed on
// a stale authority list would strand a copy and fail the no-loss audit).
func TestResolveFreshUnderReconfig(t *testing.T) {
	drv, err := NewSimDriver(SimConfig{
		Seed: 19,
		Pop: Population{
			Users:            240,
			Regions:          2,
			ServersPerRegion: 3,
			AuthorityLen:     2,
		},
		BatchSize:     4,
		FlushInterval: 2 * sim.Unit,
	})
	if err != nil {
		t.Fatal(err)
	}
	pop := drv.Population()
	victim := 2
	newHost := pop.HostsPerRegion // first host of region 1
	removeTarget := drv.ServerLoads()[1].Name

	eng := New(drv, Config{
		Seed:          19,
		Messages:      150,
		Sessions:      16,
		Ticks:         80,
		RetrieveEvery: 4,
	})
	var migrated, removed bool
	eng.OnTick = func(tick int) {
		switch tick {
		case 24:
			drained, err := drv.MigrateUser(victim, newHost)
			if err != nil {
				t.Fatalf("tick %d MigrateUser: %v", tick, err)
			}
			eng.CreditRetrieved(victim, drained)
			migrated = true
		case 48:
			if err := drv.RemoveServer(removeTarget); err != nil {
				t.Fatalf("tick %d RemoveServer(%s): %v", tick, removeTarget, err)
			}
			removed = true
		}
	}
	rep := eng.Run()
	if !migrated || !removed {
		t.Fatalf("reconfig ops did not all fire: migrated=%v removed=%v", migrated, removed)
	}
	if !rep.Ok {
		t.Fatalf("auditors flagged violations (stale resolution?): %v\nexamples: %v",
			rep.Violations, rep.Examples)
	}

	// The migrated user's new name resolves in region 1 to the list its agent
	// holds; the old name no longer resolves and redirects to the new one.
	newName, oldName := drv.UserName(victim), pop.Name(victim)
	if got := drv.dirs[1].Resolve(newName); newName.Region != pop.RegionName(1) || !slices.Equal(got, drv.agents[victim].Authority()) {
		t.Errorf("migrated user %v resolves to %v, want region %s and %v", newName, got, pop.RegionName(1), drv.agents[victim].Authority())
	}
	if got := drv.dirs[0].Resolve(oldName); got != nil {
		t.Errorf("old name %v still resolves to %v", oldName, got)
	}
	if to, ok := drv.dirs[0].Redirect(oldName); !ok || to != newName {
		t.Errorf("old name %v redirects to %v (%v), want %v", oldName, to, ok, newName)
	}
}
