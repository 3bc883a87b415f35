# Tier-1: the seed gate — must always pass. An unformatted file fails it.
.PHONY: tier1
tier1:
	@unformatted=$$(gofmt -l .); test -z "$$unformatted" || { echo "gofmt -l:" >&2; echo "$$unformatted" >&2; exit 1; }
	go build ./...
	go vet ./...
	go test ./...

# Tier-2: the full suite under the race detector — this exercises the
# parallel Dijkstra fan-out in internal/assign, plus the seeded chaos soaks (`make chaos`; the live soak
# runs in well under 30s).
.PHONY: tier2
tier2: tier1 tier1-race

# Tier-1 under the race detector: the seed gate with -race, as one target —
# what CI runs on every PR alongside plain tier1.
.PHONY: tier1-race
tier1-race:
	go test -race ./...

# Fuzz smoke: a short bounded run of each wire-protocol, WAL and term-index
# fuzz target (the corpora under */testdata/fuzz/ always run as regression
# seeds in plain `go test`; this additionally mutates for ~5s per target).
.PHONY: fuzz-smoke
fuzz-smoke:
	go test -run '^$$' -fuzz '^FuzzParseRequest$$' -fuzztime 5s ./internal/wire/
	go test -run '^$$' -fuzz '^FuzzStatusSnapshot$$' -fuzztime 5s ./internal/wire/
	go test -run '^$$' -fuzz '^FuzzTBatch$$' -fuzztime 5s ./internal/wire/
	go test -run '^$$' -fuzz '^FuzzBinaryFrame$$' -fuzztime 5s ./internal/wire/
	go test -run '^$$' -fuzz '^FuzzWALRecord$$' -fuzztime 5s ./internal/mail/mailstore/
	go test -run '^$$' -fuzz '^FuzzTermIndex$$' -fuzztime 5s ./internal/mail/mailstore/
	go test -run '^$$' -fuzz '^FuzzPredicateQuery$$' -fuzztime 5s ./internal/attr/

# Tier-2 durability slice: the WAL/snapshot/recovery store tests, the
# kill-restart-from-disk paths on both transports, and the no-spool chaos
# soaks — all under the race detector. And a tbatch frame's group commit:
# one write and one fsync per shard it touches, the same segment bytes and
# cold-opened mailboxes as one deposit per message, and a failed start that
# leaves no store open.
.PHONY: tier2-durability
tier2-durability:
	go test -race -run 'Durable|TornTail|CorruptSealed|ShardMismatch|KillRestart|ClusterReopen|WALRecord' ./internal/mail/mailstore/ ./internal/livenet/ ./internal/server/ ./internal/faults/
	go test -race -run 'TestSimNoLoss|TestSimMemory|TestLiveNoLoss|TestKillRestartLoses' ./internal/loadgen/
	go test -race -run 'TestTBatchMatchesReference|TestTBatchOneSyncPerShard|TestNewServerOpenFailure' ./internal/wire/

# Tier-2 wire slice: the wire path under the race detector — every verb in
# frames from a raw socket and a JSON-wrapped hot verb refused
# (EveryVerbOverFrames), a text line answered with one oversized frame and a
# hang-up (TextPeerRefused), the frame codec, pipelining (the burst under
# faults included), the bounded worker pool, the pooled reader, and the read
# path's plumbing: per-batch response flush (Coalesce, Flush), pooled work
# items (WorkItem), the hand-over retrieval (HandOver), getmail bound to its
# agent on the reader (BinaryGetMailBoundOnReader), the mailbox slot a
# response gives back (ReleasedSlot, ReleaseTakes, OversizedBatch) and the
# tbatch frame as one grouped deposit against the per-message loop it
# replaced, with its allocation budget and partly delivered items (TBatch);
# the read path's allocation budgets (ReadPathAllocs) and a submit's
# recipients parsed on the reader, answered as before (SubmitOnReader).
.PHONY: tier2-wire
tier2-wire:
	go test -race -run 'EveryVerbOverFrames|TextPeerRefused|Pipeline|Binary|WorkPool|WorkQueue|ConnReader|Coalesce|Flush|WorkItem|HandOver|ReleasedSlot|ReleaseTakes|OversizedBatch|TBatch|ReadPathAllocs|SubmitOnReader' ./internal/wire/ ./internal/server/

# Tier-2 balance slice: the pluggable placement seam under the race detector —
# the policy unit tests (JSQ sampling, rebalancer hysteresis/budget/diversion),
# the pins of the one placement path (static is the §3.1.1 assignment before
# and after every reconfiguration, round-robin is the live driver's old
# formula, a first touch under static costs what the retired "" fork cost) and
# of the one world under it (core.NewSyntax and NewSimDriver over the same
# fabric), the hot-spot engine races, reconfig racing the rebalancer, the
# migration-vs-kill-restart chaos, and every directory write visible to the
# next read.
.PHONY: tier2-balance
tier2-balance:
	go test -race ./internal/placement/
	go test -race -run 'TestStaticPlacementIsTheAssignment|TestRoundRobinIsTheLiveFormula|TestOneWorld|TestFirstTouchAllocs|TestJSQSpreadsHotspot|TestRebalancerMigrates|TestReconfigUnderRebalance|TestMigrationRacesKillRestart' ./internal/loadgen/
	go test -race -run 'TestDirectoryBasics' ./internal/server/

# Tier-2 architecture slice: the §3.2/§3.3 shoot-out under the race detector —
# the roaming scenario (overhead auditor, rehash reconfiguration, faults), the
# E7/E8 exact-count property pins, the locind rehash-vs-in-flight race table,
# the federation and a deposit armed across a rehash, §3.2 delivery on
# internal/server against the seeded schedules recorded from locind's own
# delivery half (testdata/delivery.golden) and the crash re-drive restarting
# at the head of the list, a rehash's evacuation looking only at mailboxes
# that hold mail, the attr mass-distribution scenario
# (loss/bound/partial auditors under chaos), the convergecast node-kill
# regression, and the typed tree against the old []any convergecast kept as
# its reference model (topologies × fault cases × seeds: same items,
# unavailable and pruned roots, ledger and time).
.PHONY: tier2-arch
tier2-arch:
	go test -race -run 'TestRoam|TestE7|TestRehash|TestFederated|TestPendingDepositWalks|TestDeliveryMatchesReference|TestAttrScenario|TestConvergecast|TestEvacuate' \
		./internal/loadgen/ ./internal/locind/ ./internal/broadcast/ ./internal/server/
	go test -race ./internal/attr/

# Tier-2 attr-prune slice: the selective-multicast machinery under the race
# detector — the sketch unit tests (churn no-false-negative property, FP
# bound), the Distribute≡Start pruning property and stale-fail-open pins in
# internal/broadcast, the wire query verb, and the scenario-level
# pruned-vs-unpruned equivalence plus chaos auditors in internal/loadgen.
.PHONY: tier2-attr-prune
tier2-attr-prune:
	go test -race ./internal/sketch/
	go test -race -run 'TestDistribute|TestStaleSketch|TestPrunedNodeSet' ./internal/broadcast/
	go test -race -run 'TestQuery|TestSketch|TestSearchTerms|TestTermIndex' ./internal/wire/ ./internal/mail/mailstore/
	go test -race -run 'TestAttrPrune|TestAttrPruned' ./internal/loadgen/

# Tier-2 retained-memory slice: what a message the daemon is done with leaves
# behind, under the race detector — the flat-heap gate (160 000 messages
# through a durable wire server; retained_bytes_per_msg is not a BENCHMARK.json
# metric, so this test is what holds it), the bounded tracer against its model
# and under concurrent stampers, the IDSet run layout, the two
# frame-aliasing pins, the client's ID arena (a kept ID holds no payload and
# no body, and is never written again) and text arena (a kept body pins one
# chunk), and the §3.3 tree after 2 000 taken
# queries (no pending record, no table entry, a flat heap).
.PHONY: tier2-retained
tier2-retained:
	go test -race -run 'TestIngestRetainedFlat|TestMailboxKeyDoesNotAliasFrame|TestKeptIDPinsNoPayload|TestPipelineKeptIDsHoldNoBodies|TestPipelineKeptBodyPinsOneChunk|TestIDArenaNeverRewrites' ./internal/wire/
	go test -race -run 'Ring|TestTracerMatchesReference|TestStampAllocs' ./internal/obs/
	go test -race -run 'IDSet|TestMailboxMatchesReference|TestDurableSeenSetSameLayout' ./internal/mail/ ./internal/mail/mailstore/
	go test -race -run 'TestTreeRetainsNothing' ./internal/broadcast/

# Tier-2 transit slice: who owns a payload in the air, under the race detector —
# netsim's recycled boxes (handed back once on every end of a flight, cleared,
# never under their reader), the recycled transfer, batch
# and §3.2 notification records against recorded counters
# (TestRecycledTransferRecords, TestRecycledPendingRecords), the same seeded
# schedules with recycled boxes overwritten with garbage instead of zeros, the
# hand-over retrievals and the convergecast's handed-over item slices, and the
# allocation budgets of the transit side (0 per warmed transfer or §3.2
# deposit + notify cycle — TestDepositCycleTransitAllocs, 1 per warmed §3.3
# query, 2.8 per copy the attr scenario deposits, 3.0 under -race, where
# sync.Pool drops a quarter of the released slots; a slot array per first
# deposit and the chunks its mailbox is carved from —
# TestFirstDepositAllocBudget; 0 per first-touched user —
# TestFirstTouchAllocs), and the auditors' verdicts through their string and
# value paths (TestLedgerVerdicts). And the mailbox slot a wire response gives
# back (mail.Release), scribbled on the same way and run ten times: the
# hand-over schedules, the oversized batch, eight connections under
# kill-restart.
.PHONY: tier2-transit
tier2-transit:
	go test -race -run 'Recycled|PendingRecords|Poisoned|TransitAllocs|DepositCycle|TakeMail|HandedOver|DispatchAllocs|SendAllocs|ReusesRecord|TestSimSubmitAllocs|TestRoamSubmitAllocs|TestFirstTouchAllocs|TestLedgerVerdicts|AllocBudget' \
		./internal/netsim/ ./internal/server/ ./internal/client/ ./internal/locind/ ./internal/loadgen/ ./internal/broadcast/ ./internal/mail/ ./internal/mail/mailstore/
	go test -race -count=10 -run 'ReleasedSlot|ReleaseTakes|OversizedBatch|TestDrainFit' ./internal/mail/ ./internal/wire/ ./internal/livenet/

# Tier-2 determinism gate: same seed ⇒ same bytes, as a test and not a habit.
# One small mailbench run per architecture, faults off and on, executed twice;
# stdout must be byte-identical once the wall-clock line ("… wall") is
# dropped. Full precision — every float of the Report and Snapshot —
# is tier-1's TestEngineDeterminism and TestRoamScenarioDeterminism. Everything
# it writes goes under .bench_build/.
.PHONY: tier2-determinism
tier2-determinism:
	@mkdir -p .bench_build/determinism
	go build -o .bench_build/determinism/mailbench ./cmd/mailbench
	@set -e; cd .bench_build/determinism; \
	for arch in syntax roaming attr; do for faults in "" -faults; do \
		case $$arch in \
			attr) args="-ticks 150 -queries 20" ;; \
			*) args="-messages 1500 -ticks 150 -sessions 128" ;; \
		esac; \
		for pass in a b; do \
			./mailbench -arch $$arch -users 20000 -servers 8 -seed 3 $$args $$faults > $$pass.out; \
			grep -v wall $$pass.out > $$pass.txt; \
		done; \
		cmp a.txt b.txt || { echo "tier2-determinism: -arch $$arch $$faults differs between two runs of seed 3" >&2; diff a.txt b.txt | head -20 >&2; exit 1; }; \
		echo "deterministic: -arch $$arch $$faults ($$(wc -l < a.txt) lines)"; \
	done; done

# Check: the full pre-merge gate. The last lines are ratchets: the product
# may not outgrow SIZE_CEILING (see `size`); internal/faults stays schedules
# and injectors — the harness (internal/loadgen) imports it, never the other
# way round, and it knows nothing of internal/core; there is one §3.1
# world placed one way — no branch on whether a placement policy is
# configured in the drivers, and the §3.1.1 assignment built in one file; and
# §3.2 delivers through internal/server — internal/locind keeps no retry
# timers, acks or mailboxes of its own; and the harness keeps message IDs as
# values — no m.ID.String() per copy in internal/loadgen.
.PHONY: check
check: tier1 tier1-race fuzz-smoke tier2-durability tier2-wire tier2-balance tier2-arch tier2-attr-prune tier2-retained tier2-transit tier2-determinism
	@n=$$($(SIZE)); test $$n -le $(SIZE_CEILING) || { echo "make size = $$n, above SIZE_CEILING = $(SIZE_CEILING)" >&2; exit 1; }
	@if go list -deps ./internal/faults | grep -q -e internal/core -e internal/loadgen; then echo "internal/faults imports the harness or internal/core" >&2; exit 1; fi
	@if grep -n -E 'Policy [!=]= ""|policy [!=]= nil' $$(ls internal/loadgen/*.go | grep -v _test.go); then echo "internal/loadgen branches on whether a placement policy is configured" >&2; exit 1; fi
	@n=$$(grep -l -F 'assign.New(' $$(ls internal/core/*.go internal/loadgen/*.go | grep -v _test.go) | wc -l); test $$n -eq 1 || { echo "assign.New( appears in $$n non-test files under internal/core internal/loadgen, want 1" >&2; exit 1; }
	@if grep -n -E 'sim\.Event|Ack struct|map\[names\.Name\]\*mail\.Mailbox' $$(ls internal/locind/*.go | grep -v _test.go); then echo "internal/locind keeps a delivery ledger of its own (a timer, an ack or a mailbox map)" >&2; exit 1; fi
	@if grep -n -E 'ID\.String\(\)' $$(ls internal/loadgen/*.go | grep -v _test.go); then echo "internal/loadgen formats a message ID per copy; its books take IDs as values" >&2; exit 1; fi

# Chaos: just the fault-injection soaks — compiled schedules of internal/faults
# run through internal/loadgen's engine and auditors on both transports —
# verbosely.
.PHONY: chaos
chaos:
	go test -race -v -run '^(TestChaosSoakSim|TestChaosSoakSimTraceAudit|TestChaosSoakSimDeterministic|TestChaosSoakSimSeeds|TestChaosSoakLive)$$' ./internal/faults/

# Tier-2 observability slice: the concurrency-sensitive instrumentation
# surface (registry/histograms/tracer, the live cluster that feeds them, and
# the wire status op that ships them) under the race detector.
.PHONY: tier2-obs
tier2-obs:
	go test -race ./internal/obs/ ./internal/livenet/ ./internal/wire/

# Obs demo: the live chaos soak (examples/chaos: loadgen's engine and auditors,
# trace audit included), printing counters and per-stage latency quantiles
# from the obs registry.
.PHONY: obs-demo
obs-demo:
	go run ./examples/chaos

# Bench: the repository's one fixed benchmark (bench/README.md) — all seven
# workloads, untraced and traced, one child process each — written to a run
# document under .bench_build/ (git-ignored).
.PHONY: bench
bench:
	bash bench/run.sh -workload all -o .bench_build/run.json

# Bench compare: judge two run documents written by `make bench`, metric by
# metric, against the bounds and run-to-run spread; non-zero exit on "worse".
#   make bench-compare OLD=before.json NEW=.bench_build/run.json
.PHONY: bench-compare
bench-compare:
	@test -n "$(OLD)" && test -n "$(NEW)" || { echo "usage: make bench-compare OLD=old.json NEW=new.json" >&2; exit 2; }
	bash bench/run.sh compare $(OLD) $(NEW)

# Bench pairs: N alternating parent/change runs of one workload, the way a
# change that claims a gain is measured (EXPERIMENTS E23 onwards did this by
# hand). REF is checked out with `git worktree` under .bench_build/pairs/ref;
# both sides build and run through their own bench/run.sh from their own
# checkout, pair i runs seed i on both sides (the allocation counts repeat per
# seed), the side that goes first alternates from pair to pair, and each side
# appends to its own run document, which bench/run.sh compare then judges.
# The worktree stays for the next call (another WORKLOAD, another REF);
# `git worktree remove --force .bench_build/pairs/ref` takes it away.
#   make bench-pairs REF=HEAD~1 WORKLOAD=sim_deliver N=10
N ?= 10
.PHONY: bench-pairs
bench-pairs:
	@test -n "$(REF)" && test -n "$(WORKLOAD)" || { echo "usage: make bench-pairs REF=<commit> WORKLOAD=<name> [N=10]" >&2; exit 2; }
	@mkdir -p .bench_build/pairs
	@test -d .bench_build/pairs/ref || git worktree add --detach .bench_build/pairs/ref $(REF)
	git -C .bench_build/pairs/ref checkout --detach $(REF)
	@rm -f .bench_build/pairs/ref-$(WORKLOAD).json .bench_build/pairs/new-$(WORKLOAD).json
	@set -e; here=$$PWD; \
	ref() { (cd $$here/.bench_build/pairs/ref && bash bench/run.sh -workload $(WORKLOAD) -seed $$1 -trace 0 -o $$here/.bench_build/pairs/ref-$(WORKLOAD).json | tail -1); }; \
	new() { bash bench/run.sh -workload $(WORKLOAD) -seed $$1 -trace 0 -o $$here/.bench_build/pairs/new-$(WORKLOAD).json | tail -1; }; \
	for i in $$(seq 1 $(N)); do \
		if [ $$((i % 2)) -eq 1 ]; then echo "pair $$i: ref, new"; ref $$i; new $$i; \
		else echo "pair $$i: new, ref"; new $$i; ref $$i; fi; \
	done
	bash bench/run.sh compare .bench_build/pairs/ref-$(WORKLOAD).json .bench_build/pairs/new-$(WORKLOAD).json

# Size: non-test Go lines outside bench/ and testdata/, what ROADMAP's size
# target counts — the total, then the same count per top-level directory and
# per package of internal/ (the root holds doc.go only). SIZE_CEILING is what
# `check` holds the total to: the count of the PR that last set it. A PR that
# needs more raises it here, in its own diff, where a reviewer sees it.
SIZE_CEILING = 24018
SIZE = find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -not -path '*/testdata/*' | xargs cat | wc -l
.PHONY: size
size:
	@$(SIZE)
	@for d in cmd examples internal internal/*/; do printf '%7d  %s\n' $$(find $$d -name '*.go' -not -name '*_test.go' -not -path '*/testdata/*' | xargs cat | wc -l) $${d%/}; done
