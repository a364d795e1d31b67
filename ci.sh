#!/usr/bin/env bash
# CI gate, in order: gofmt, vet, build, synthd dependencies (no IQP in
# the daemon), tier-1 tests, perfbench smoke runs, race-checked service
# layer, parallel solver, solver kernel (golden tree), seeding, campaign
# determinism, FPVA, FPVA determinism, service chaos, store crash
# recovery, cluster, plan bytes, replication chaos, admission, and the
# benchmark tiers (every record and gate in Go, appended to
# BENCH.jsonl). Each step's comment says what it checks.
#
# Usage: ./ci.sh            (full gate)
#        BENCHTIME=5s ./ci.sh  (longer benchmark runs)
set -euo pipefail
cd "$(dirname "$0")"
# Only the benchmark step appends records; no other go test may inherit it.
unset BENCH_HISTORY

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
  echo "ci.sh: gofmt needed on:" >&2
  echo "$unformatted" >&2
  exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== synthd dependency gate: no IQP in the daemon =="
# The branch and bound is synthd's one engine. The paper's IQP encoding
# (internal/model) and its MILP substrate (internal/milp, internal/lp)
# stay reachable from cmd/switchsynth and cmd/experiments only.
synthd_deps=$(go list -deps ./cmd/synthd)
if grep -E '^switchsynth/internal/(lp|milp|model)$' <<<"$synthd_deps"; then
  echo "ci.sh: cmd/synthd links the IQP packages listed above" >&2
  exit 1
fi

echo "== go test (tier 1) =="
go test ./...

echo "== perfbench smoke: vet, then 3 s runs of both workloads =="
# perfbench is its own module (perfbench/go.mod), outside ./..., so no
# step above builds or vets it. Build it and run each BENCHMARK.json
# workload for 3 s against this checkout's synthd: the last line must
# report a correct run with no failed request.
(cd perfbench && go vet ./...)
for w in hit-heavy first-seen; do
  last=$(bash perfbench/run.sh --workload "$w" --seed 1 --seconds 3 | tail -n 1)
  echo "$last"
  if ! grep -q '"correct":true' <<<"$last" || ! grep -q '"failed":0[,}]' <<<"$last"; then
    echo "ci.sh: perfbench $w smoke run is not correct with 0 failed" >&2
    exit 1
  fi
done

echo "== go test -race (service layer) =="
go test -race ./internal/service/... ./internal/lru/ ./cmd/synthd/... ./internal/search/ ./internal/topo/ ./client/

echo "== parallel solver gate: -race -count=2 =="
# The parallel branch-and-bound suite twice under the race detector:
# shared-incumbent publication, work stealing, topology-cache sharing.
go test -race -count=2 -run 'TestParallel|TestSharedGrid|TestClaimOrder|TestCounters' \
  ./internal/search/ ./internal/topo/

echo "== solver kernel gate: golden tree + kernel oracles under -race =="
# The search tree is frozen: the sequential node count, plan digest and
# published-incumbent count of every golden instance must match their
# recorded values and plans must be byte-identical at 1/2/8 workers. The
# incremental clockwise check, the per-node winding arcs, the presorted
# candidate tables and the bitset set ownership are diffed against their
# full-rescan, sort-per-node and owner-scan oracles. The node bound is
# checked against exhaustive subtrees: at random reachable states of every
# golden instance it never exceeds the cheapest leaf below, is +inf only
# over a subtree without leaves, equals with no cut the full bound — whose
# junction cover the test recomputes from the switch graph — and its
# early exits prune exactly when the full bound does. A degraded plan
# reports the full root bound (plus one set) as its LowerBound, not its
# stub part. The topology facts the cover rests on are stated as tests:
# on the 8/12/16-pin crossbars every pin has a junction of its own and
# every interior edge is the shortest; on FPVA grids exactly the corner
# junctions carry two ports; every route leaves and enters its pins'
# junctions by interior edges unless both pins share one junction.
go test -race -run 'TestGoldenTree|TestBoundAdmissible|TestDegradedLowerBoundIsRootBound|TestClockwiseAdmitsMatchesFullCheck|TestClockwiseArcMatchesFullCheck|TestCandTableOrder|TestSetOwnershipMatchesOwnerScan|TestBitsRange|TestCrossbarJunctionFacts|TestFPVAJunctionPorts' \
  ./internal/search/ ./internal/topo/

echo "== seeding gate: -race -count=2 =="
# A solve seeded with a valid plan (Options.SeedIncumbent) proves the
# same bytes as a cold one at every worker count, including the
# 200-spec self-seeded property sweep; stale, infeasible and foreign
# seeds are rejected. Twice under the race detector.
go test -race -count=2 -run 'Seed' ./internal/search/

echo "== determinism gate: campaign at -solver-workers 1/2/8 =="
# Plans must be bit-identical at every worker count: run the seeded
# campaign at three solver widths and byte-diff the deterministic
# report. The exact MILP encoding cross-checks the optima of these
# seed-7 campaign specs in tier 1 (TestMILPOracleOnCampaignSpecs).
det_dir=$(mktemp -d)
trap 'rm -rf "$det_dir"' EXIT
for w in 1 2 8; do
  go run ./cmd/experiments -only campaign -campaign 30 -seed 7 \
    -timelimit 10s -workers 2 -solver-workers "$w" -out "$det_dir/w$w" > /dev/null
done
diff "$det_dir/w1/campaign.txt" "$det_dir/w2/campaign.txt"
diff "$det_dir/w1/campaign.txt" "$det_dir/w8/campaign.txt"
echo "campaign.txt byte-identical at -solver-workers 1, 2, 8"

echo "== fpva gate: -race -count=2, fault coverage + determinism =="
# The FPVA suite twice under the race detector: grid construction and
# cache-key separation, synthesis determinism at 1/2/8 solver workers,
# and the test-pattern property suite — TestFaultCoverage simulates
# every single stuck-open/stuck-closed valve fault on 2x2 through 8x8
# grids and asserts 100% detection by the generated pattern set.
go test -race -count=2 ./internal/fpva/
go test -race -count=2 -run 'FPVA|SharedTopology|ValidateTopology|CanonicalKeyTopology|TestVerifyFile' \
  ./internal/topo/ ./internal/spec/ ./internal/planio/ ./cmd/verifyplan/
go test -race -run 'TestFPVAPlanClusterMatchesSingleNode' ./internal/cluster/

echo "== fpva determinism gate: campaign at -solver-workers 1/2/8 =="
# Same byte-diff discipline as the crossbar campaign: the randomized
# FPVA campaign plus the grid scaling sweep (which re-verifies 100%
# fault coverage at every swept size) must be byte-identical at every
# solver width.
for w in 1 2 8; do
  go run ./cmd/experiments -only fpva -fpva-campaign 12 -seed 7 \
    -timelimit 10s -workers 2 -solver-workers "$w" -out "$det_dir/fw$w" > /dev/null
done
diff "$det_dir/fw1/fpva.txt" "$det_dir/fw2/fpva.txt"
diff "$det_dir/fw1/fpva.txt" "$det_dir/fw8/fpva.txt"
echo "fpva.txt byte-identical at -solver-workers 1, 2, 8"

echo "== chaos suite: 25 seeded fault schedules, -race -count=2 =="
# The chaos tests carry their own goroutine-leak gate (leakcheck_test.go);
# -count=2 replays every seed twice to shake out order-dependent state.
# Its degraded-path record comes from the benchmark step, off the race
# detector.
go test -race -count=2 -run 'TestChaos' ./internal/service/

echo "== store crash-recovery gate: 25 seeded schedules, -race -count=2 =="
# Full store suite under the race detector, every crash schedule twice:
# torn tails, corrupt records, failed fsyncs.
go test -race -count=2 ./internal/store/...

echo "== cluster gate: -race -count=2, four-topology determinism =="
# The ring/membership/proxy/fill/sync suites twice under the race
# detector (-short skips only the campaign test; the proxy suite runs
# the routing hook through the clustered handler, including
# TestProxyRefusesInvalidBodyWhereItLands: a body the handler refuses
# is answered by the node it lands on, never forwarded), then the
# campaign determinism test once: it boots one node, three nodes, three
# replicating nodes (binary frames forwarded, peer-filled and pushed),
# and three nodes with one killed mid-campaign, and byte-compares the
# deterministic reports across all four topologies. The -short suite
# also carries the replication chaos gate: write-time push, failover
# reads, corrupt-push rejection, partition+heal anti-entropy
# convergence and kill-restart rejoin, all seeded and run twice. It
# skips TestProxyRelaysSlowOwnerAnswer (a plain forward outlives 10 s
# without a fallback), which the tier-1 run above covers.
go test -race -count=2 -short ./internal/cluster/
go test -race -run 'TestCampaignDeterministicAcrossTopologies' ./internal/cluster/

echo "== plan-bytes gate: fuzz + one admission door + plan stream =="
# The binary frame decoder must reject every malformed frame it is
# fuzzed with, and any frame either decoder accepts must re-encode to a
# byte-identical fixed point in both formats (JSON stays the export and
# human format). The door suite, race-checked: a one-byte-flipped frame,
# a valid frame filed under the wrong key, a valid plan in JSON (no
# checksum) and a valid plan whose spec is not its key's canonical form
# (a requester's name, a permuted module list) are refused at the store
# read, the peer fill, the PUT /plans/{key} push and the anti-entropy
# import, with nothing left behind in any tier; a solve whose proven
# plan fails contamination verification enters no tier and is vouched
# for by no digest; nothing
# the engine keeps or hands out under a key (watch frames, plan bytes,
# store record, replica push) names the requester whose spec produced
# it, and every spelling of a key leaves the same frame whichever was
# solved first; a
# misfiled store record is healed and re-solved to the true optimum;
# the digest cache only skips re-verification for bytes already
# admitted. The plan-stream suite proves the persistent fetch channel —
# the only way a node fetches plan bytes from a peer — serves
# byte-identical frames, reports a refused upgrade as a fill error,
# re-dials a dead pooled stream once, and hangs up when its engine
# retires; GET /plans/{key} serves every caller JSON. A plan whose set
# labels leave a gap below NumSets is refused by the verifier, by
# verifyplan (an error, not a panic) and at every door, and a plan
# relabeled onto a permuted spec and back encodes to its own bytes. The
# byte-diff of the replicating binary 3-node campaign is the replicating
# arm of the four-topology determinism test in the cluster gate above.
go test -fuzz '^FuzzDecodeBinary$' -fuzztime 15s -run '^$' ./internal/planio/
go test -fuzz '^FuzzCrossFormat$' -fuzztime 15s -run '^$' ./internal/planio/
go test -race -run 'TestTamperedPlanBytesRejectedAtEveryDoor|TestSolvedPlanPassesTheDoorBeforeAnyTier|TestSharedStateCarriesNoRequesterName|TestOneFramePerKeyWhateverTheSpelling|TestEngineHealsPersistedPlanUnderWrongKey|TestDigestCache|TestPlanBytes|TestPlanEndpointServesJSON|TestPlanStream|TestStreamFetch|TestVerifyDetectsTampering|TestVerifyFileRejectsGappedSetLabels|TestRelabelRoundTripProperty' \
  ./internal/cluster/ ./internal/service/ ./internal/planio/ ./internal/contam/ ./cmd/verifyplan/ ./internal/spec/

echo "== replication chaos gate: kill any node mid-campaign, zero re-solves =="
# For every choice of victim in a replicated 3-node cluster: warm a
# seeded campaign, kill the victim mid-rerun, and require the rerun to
# stay byte-identical to a single-node reference with zero additional
# solver runs — every plan the victim held must be served from a
# successor's replica.
go test -race -run 'TestChaosKillAnyNodeMidCampaignZeroResolves' ./internal/cluster/

echo "== admission gate: batch determinism + fair queuing, -race -count=2 =="
# Batch dedup and determinism: a 100-spec/7-key batch must trigger
# exactly 7 solves, and a batch answer must be byte-identical to solving
# the same specs sequentially. Fairness: DRR must bound the interactive
# tenant's queue wait under a background flood (engine level: at most
# one background solve starts between a probe's enqueue and its start,
# an ordering read from the solve counter; queue level), and shed
# verdicts must carry the measured Retry-After. All of
# it twice under the race detector, plus the streaming contract (frames,
# key watching, wait=proof byte-identity with the cold path).
go test -race -count=2 -run \
  'TestBatch|TestRetryAfterQueueShedPath|TestInvalidPriorityHeaderRejected|TestEngineTwoTenantFairness|TestErrorKindStatusTable|TestDoStream|TestWatchKey|TestHTTPWaitProofStreamsAndMatchesCold|TestHTTPStreamKeyEndpoint' \
  ./internal/service/
# The sub-second flight-lifecycle tests, fifty times under the race
# detector: a cache hit holds no flight, an unknown or degraded key is
# ErrUnknownKey, and watchers of a shed leader's flight get its error
# (or, for a leader's private cancellation, look the key up again)
# instead of hanging.
go test -race -count=50 -run \
  '^(TestDoStreamCacheHitHasNoFrames|TestWatchKeyUnknownKey|TestWatchKeyAndDoStreamGetShedLeadersError|TestWatchKeyRetriesLeadersPrivateCancel|TestWatchKeyAfterDegradedSolveIsUnknown)$' \
  ./internal/service/
go test -race -count=2 ./internal/admission/

echo "== benchmarks: every tier gated in Go, one stamped record each in BENCH.jsonl =="
# TestBenchReport prices the service, search, store, cluster, planio and
# FPVA tiers of bench_test.go; the service package adds the admission
# and degraded-path records. Every ratio and gate is computed
# beside the number it checks, and each passing tier appends one line.
# -p 1 keeps the two packages from timing each other; -count=1 stops a
# cached result from skipping the append.
BENCH_HISTORY="$PWD/BENCH.jsonl" go test -p 1 -count=1 -v -timeout 1200s \
  -run '^(TestBenchReport|TestAdmissionBenchReport|TestChaosDegradedThroughput)$' \
  -benchtime "${BENCHTIME:-2s}" . ./internal/service/

echo "ci.sh: OK"
