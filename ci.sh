#!/usr/bin/env bash
# CI gate: format + vet + build + full tests, race-checked service layer,
# the seeded chaos suites (service faults and store crash-recovery, both
# goroutine-leak gated and run twice), the cluster gate (race-checked
# suite — including the replication, partition-heal and kill-restart
# chaos tests — plus the four-topology campaign byte-diff and the
# kill-any-node zero-re-solve campaign), the admission gate (batch
# dedup/determinism, per-tenant fairness and the streaming contract,
# race-checked twice, plus the flight-lifecycle tests fifty times), the
# warm-start gate (similarity-index adaptation and seeded-solve
# determinism, race-checked twice, plus the campaign byte-diff across
# solver widths), the FPVA gate (race-checked
# fault-coverage property suite — every single stuck-open/stuck-closed
# valve fault on 2x2..8x8 grids must be detected by the generated test
# patterns — plus the randomized FPVA campaign byte-diffed across solver
# widths, and the cluster-served FPVA plan byte-compared to a cold
# single-node solve),
# and the benchmarks: cold-vs-cached request rate (BENCH_service.json),
# degraded-path throughput under injected slow-solve faults
# (BENCH_resilience.json), the plan-store tiers — cold solve vs memory
# hit vs disk hit vs warm boot (BENCH_store.json), the cluster tiers —
# local hit, peer fill, cold solve, replica push and failover read
# (BENCH_cluster.json), and the
# admission tier — batch dedup speedup, per-class queue latency,
# streamed time-to-first-plan vs time-to-proof (BENCH_admission.json),
# and the warm-start tier — cold vs warm-started synthesis on the
# saturated 16-pin ring and its one-module-delta neighbor family
# (BENCH_portfolio.json), and the plan wire format — binary vs JSON
# encode/decode cost and frame size with hard gates on decode speedup,
# size ratio and decode allocations (BENCH_planio.json), and the FPVA
# tier — grid synthesis and test-pattern generation with a scaling gate
# (BENCH_fpva.json). The plan-bytes
# gate fuzzes the binary frame decoder and the cross-format re-encode
# fixed point, and race-checks the one admission door: tampered bytes
# refused at every door a plan can enter a node through, and a valid
# plan misfiled under the wrong key in the store healed, not served.
#
# Usage: ./ci.sh            (full gate)
#        BENCHTIME=5s ./ci.sh  (longer benchmark runs)
set -euo pipefail
cd "$(dirname "$0")"

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

echo "== go test (tier 1) =="
go test ./...

echo "== go test -race (service layer) =="
go test -race ./internal/service/... ./cmd/synthd/... ./internal/search/ ./internal/topo/ ./client/

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
# full-rescan, sort-per-node and owner-scan oracles.
go test -race -run 'TestGoldenTree|TestClockwiseAdmitsMatchesFullCheck|TestClockwiseArcMatchesFullCheck|TestCandTableOrder|TestSetOwnershipMatchesOwnerScan|TestBitsRange' \
  ./internal/search/ ./internal/topo/

echo "== warm-start gate: -race -count=2 =="
# The similarity index's adaptation paths and the seeded-solve
# determinism suite, twice under the race detector. -short skips only
# the 200-spec property sweep, which tier 1 above already ran once at
# full size.
go test -race -count=2 -short ./internal/portfolio/

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
# The throughput run also emits the degraded-path benchmark.
BENCH_RESILIENCE_OUT="$PWD/BENCH_resilience.json" \
  go test -race -count=2 -run 'TestChaos' ./internal/service/
cat BENCH_resilience.json

echo "== store crash-recovery gate: 25 seeded schedules, -race -count=2 =="
# Full store suite under the race detector, every crash schedule twice:
# torn tails, corrupt records, failed fsyncs, abandoned compactions.
go test -race -count=2 ./internal/store/...

echo "== cluster gate: -race -count=2, four-topology determinism =="
# The ring/membership/proxy/fill/sync suites twice under the race
# detector (-short skips only the campaign test), then the campaign
# determinism test once: it boots one node, three nodes, three
# replicating nodes (binary frames forwarded, peer-filled and pushed),
# and three nodes with one killed mid-campaign, and byte-compares the
# deterministic reports across all four topologies. The -short suite
# also carries the replication chaos gate: write-time push, failover
# reads, read-repair, corrupt-push rejection, partition+heal
# anti-entropy convergence and kill-restart rejoin, all seeded and run
# twice.
go test -race -count=2 -short ./internal/cluster/
go test -race -run 'TestCampaignDeterministicAcrossTopologies' ./internal/cluster/

echo "== plan-bytes gate: fuzz + one admission door + plan stream =="
# The binary frame decoder must reject every malformed frame it is
# fuzzed with, and any frame either decoder accepts must re-encode to a
# byte-identical fixed point in both formats (JSON stays the export and
# human format). The door suite, race-checked: a one-byte-flipped frame
# and a valid frame filed under the wrong key are refused at the store
# read, the peer fill, the PUT /plans/{key} push, the anti-entropy
# import and read-repair, with nothing left behind in any tier; a
# misfiled store record is healed and re-solved to the true optimum;
# the digest cache only skips re-verification for bytes already
# admitted. The plan-stream suite proves the persistent fetch channel
# serves byte-identical frames, falls back to plain GETs for pre-stream
# peers, and hangs up when its engine retires. The byte-diff of the
# replicating binary 3-node campaign is the replicating arm of the
# four-topology determinism test in the cluster gate above.
go test -fuzz '^FuzzDecodeBinary$' -fuzztime 15s -run '^$' ./internal/planio/
go test -fuzz '^FuzzCrossFormat$' -fuzztime 15s -run '^$' ./internal/planio/
go test -race -run 'TestTamperedPlanBytesRejectedAtEveryDoor|TestEngineHealsPersistedPlanUnderWrongKey|TestDigestCache|TestPlanBytes|TestPlanEndpointNegotiatesFormat|TestPlanStream|TestStreamFetch' \
  ./internal/cluster/ ./internal/service/ ./internal/planio/

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
# tenant's queue wait under a background flood (engine level and queue
# level), and shed verdicts must carry the measured Retry-After. All of
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

echo "== admission benchmark: batch dedup, per-class latency, streaming =="
# Emits BENCH_admission.json: batch dedup speedup over sequential cold
# solves (gates: the batch runs exactly one solve per distinct key, the
# sequential run one per spec, and the batch is >= 5x faster with every
# solve priced at a fixed injected 20 ms floor, so the ratio counts
# solves saved rather than tracking host or solver speed), EWMA queue wait per priority class under a mixed
# interactive/background load, and streamed time-to-first-plan vs
# time-to-proof on the saturated 16-pin case.
BENCH_ADMISSION_OUT="$PWD/BENCH_admission.json" \
  go test -run 'TestAdmissionBenchReport' ./internal/service/
cat BENCH_admission.json

echo "== warm-start benchmark: cold vs warm-start =="
# Emits BENCH_portfolio.json: cold vs warm-started solve times across
# the saturated 16-pin ring's drop-one-flow (= one-module-delta)
# neighbor family (gate: warm-start speedup > 1x, plans byte-identical).
BENCH_PORTFOLIO_OUT="$PWD/BENCH_portfolio.json" \
  go test -run 'TestPortfolioBenchReport' -timeout 1200s ./internal/service/
cat BENCH_portfolio.json

echo "== service benchmark: cold vs cached =="
bench_out=$(go test -run '^$' -bench 'BenchmarkService_(Cold|Cached)Synthesize$' -benchtime "${BENCHTIME:-2s}" .)
echo "$bench_out"
echo "$bench_out" | awk '
  $1 ~ /^BenchmarkService_ColdSynthesize/   { cold = $3 }
  $1 ~ /^BenchmarkService_CachedSynthesize/ { cached = $3 }
  END {
    if (cold == "" || cached == "") {
      print "ci.sh: benchmark output incomplete" > "/dev/stderr"
      exit 1
    }
    printf "{\n"
    printf "  \"coldNsPerOp\": %.0f,\n", cold
    printf "  \"cachedNsPerOp\": %.0f,\n", cached
    printf "  \"coldReqPerSec\": %.1f,\n", 1e9 / cold
    printf "  \"cachedReqPerSec\": %.1f,\n", 1e9 / cached
    printf "  \"cachedSpeedup\": %.1f\n", cold / cached
    printf "}\n"
  }' > BENCH_service.json
cat BENCH_service.json

echo "== solver benchmark: sequential vs parallel branch and bound =="
search_out=$(go test -run '^$' -bench 'BenchmarkSearch_(Sequential16|Parallel16)$' -benchmem -benchtime "${BENCHTIME:-2s}" .)
echo "$search_out"
echo "$search_out" | awk '
  $1 ~ /^BenchmarkSearch_Sequential16/ { seq = $3; seqAllocs = $7 }
  $1 ~ /^BenchmarkSearch_Parallel16/   { par = $3; parAllocs = $7 }
  END {
    if (seq == "" || par == "") {
      print "ci.sh: search benchmark output incomplete" > "/dev/stderr"
      exit 1
    }
    # Allocation ceiling: the search state lives in the pooled arena, so
    # a sequential proof allocates only its incumbents and result.
    if (seqAllocs > 55) {
      printf "ci.sh: sequential solve makes %d allocs/op, ceiling 55\n", seqAllocs > "/dev/stderr"
      exit 1
    }
    printf "{\n"
    printf "  \"sequentialNsPerOp\": %.0f,\n", seq
    printf "  \"parallelNsPerOp\": %.0f,\n", par
    printf "  \"sequentialAllocsPerOp\": %.0f,\n", seqAllocs
    printf "  \"parallelAllocsPerOp\": %.0f,\n", parAllocs
    printf "  \"parallelSpeedup\": %.2f\n", seq / par
    printf "}\n"
  }' > BENCH_search.json
cat BENCH_search.json

echo "== store benchmark: cold vs memory vs disk vs warm boot =="
store_out=$(go test -run '^$' -bench 'BenchmarkStore_' -benchtime "${BENCHTIME:-2s}" .)
echo "$store_out"
echo "$store_out" | awk '
  $1 ~ /^BenchmarkStore_ColdSolve/  { cold = $3 }
  $1 ~ /^BenchmarkStore_MemoryHit/  { mem = $3 }
  $1 ~ /^BenchmarkStore_DiskHit/    { disk = $3 }
  $1 ~ /^BenchmarkStore_WarmBoot/   { boot = $3 }
  END {
    if (cold == "" || mem == "" || disk == "" || boot == "") {
      print "ci.sh: store benchmark output incomplete" > "/dev/stderr"
      exit 1
    }
    printf "{\n"
    printf "  \"coldSolveNsPerOp\": %.0f,\n", cold
    printf "  \"memoryHitNsPerOp\": %.0f,\n", mem
    printf "  \"diskHitNsPerOp\": %.0f,\n", disk
    printf "  \"warmBootNsPerOp\": %.0f,\n", boot
    printf "  \"diskHitSpeedupOverCold\": %.1f,\n", cold / disk
    printf "  \"warmBootSpeedupOverCold\": %.1f,\n", cold / boot
    printf "  \"diskHitSlowdownOverMemory\": %.1f\n", disk / mem
    printf "}\n"
  }' > BENCH_store.json
cat BENCH_store.json

echo "== cluster benchmark: local hit, peer fill, cold solve, replica push, failover read =="
cluster_out=$(go test -run '^$' -bench 'BenchmarkCluster_' -benchtime "${BENCHTIME:-2s}" .)
echo "$cluster_out"
echo "$cluster_out" | awk '
  $1 ~ /^BenchmarkCluster_LocalHit/     { local = $3 }
  $1 ~ /^BenchmarkCluster_PeerFill/     { fill = $3 }
  $1 ~ /^BenchmarkCluster_ColdSolve/    { cold = $3 }
  $1 ~ /^BenchmarkCluster_ReplicaPush/  { push = $3 }
  $1 ~ /^BenchmarkCluster_FailoverRead/ { fo = $3 }
  END {
    if (local == "" || fill == "" || cold == "" || push == "" || fo == "") {
      print "ci.sh: cluster benchmark output incomplete" > "/dev/stderr"
      exit 1
    }
    printf "{\n"
    printf "  \"localHitNsPerOp\": %.0f,\n", local
    printf "  \"peerFillNsPerOp\": %.0f,\n", fill
    printf "  \"coldSolveNsPerOp\": %.0f,\n", cold
    printf "  \"replicaPushNsPerOp\": %.0f,\n", push
    printf "  \"failoverReadNsPerOp\": %.0f,\n", fo
    printf "  \"peerFillSpeedupOverCold\": %.1f,\n", cold / fill
    printf "  \"peerFillSlowdownOverLocal\": %.1f,\n", fill / local
    printf "  \"failoverReadOverPeerFill\": %.1f,\n", fo / fill
    printf "  \"replicaPushSpeedupOverCold\": %.1f\n", cold / push
    printf "}\n"
    if (fill / local > 3.0) {
      printf "ci.sh: peer fill %.1fx slower than a local hit, > 3x gate\n", fill / local > "/dev/stderr"
      exit 1
    }
  }' > BENCH_cluster.json
cat BENCH_cluster.json

echo "== planio benchmark: binary vs JSON encode/decode, gated =="
# Emits BENCH_planio.json and enforces the wire-format performance
# gates: binary decode >= 3x faster than JSON, binary frames >= 2x
# smaller, and a decode allocation ceiling so the zero-copy framing
# cannot silently regress into per-field churn.
planio_out=$(go test -run '^$' -bench 'BenchmarkPlanio_' -benchmem -benchtime "${BENCHTIME:-2s}" .)
echo "$planio_out"
echo "$planio_out" | awk '
  /^BenchmarkPlanio_/ {
    ns = ""; bp = ""; al = ""
    for (i = 2; i < NF; i++) {
      if ($(i+1) == "ns/op")      ns = $i
      else if ($(i+1) == "bytes/plan") bp = $i
      else if ($(i+1) == "allocs/op")  al = $i
    }
    if ($1 ~ /EncodeJSON/)   { ejNs = ns; jB = bp }
    if ($1 ~ /EncodeBinary/) { ebNs = ns; bB = bp }
    if ($1 ~ /DecodeJSON/)   { djNs = ns }
    if ($1 ~ /DecodeBinary/) { dbNs = ns; dbAl = al }
  }
  END {
    if (ejNs == "" || ebNs == "" || djNs == "" || dbNs == "" || jB == "" || bB == "") {
      print "ci.sh: planio benchmark output incomplete" > "/dev/stderr"
      exit 1
    }
    decodeSpeedup = djNs / dbNs
    sizeRatio = jB / bB
    printf "{\n"
    printf "  \"encodeJSONNsPerOp\": %.0f,\n", ejNs
    printf "  \"encodeBinaryNsPerOp\": %.0f,\n", ebNs
    printf "  \"decodeJSONNsPerOp\": %.0f,\n", djNs
    printf "  \"decodeBinaryNsPerOp\": %.0f,\n", dbNs
    printf "  \"jsonBytesPerPlan\": %.0f,\n", jB
    printf "  \"binaryBytesPerPlan\": %.0f,\n", bB
    printf "  \"decodeBinaryAllocsPerOp\": %.0f,\n", dbAl
    printf "  \"binaryDecodeSpeedupOverJSON\": %.2f,\n", decodeSpeedup
    printf "  \"binarySizeRatioOverJSON\": %.2f\n", sizeRatio
    printf "}\n"
    if (decodeSpeedup < 3.0) {
      printf "ci.sh: binary decode speedup %.2fx < 3x gate\n", decodeSpeedup > "/dev/stderr"
      exit 1
    }
    if (sizeRatio < 2.0) {
      printf "ci.sh: binary frame only %.2fx smaller than JSON, < 2x gate\n", sizeRatio > "/dev/stderr"
      exit 1
    }
    if (dbAl + 0 > 128) {
      printf "ci.sh: binary decode %.0f allocs/op > 128 ceiling\n", dbAl > "/dev/stderr"
      exit 1
    }
  }' > BENCH_planio.json
cat BENCH_planio.json

echo "== fpva benchmark: grid synthesis and test-pattern generation =="
# Emits BENCH_fpva.json: cold grid synthesis at 3x3/4x4 and test-pattern
# generation at 4x4/8x8 plus fault diagnosis at 8x8. Gate: pattern
# generation must scale no worse than 60x from 4x4 to 8x8 (the
# detection-matrix work grows ~28x; a superlinear set-cover regression
# would blow past the margin).
fpva_out=$(go test -run '^$' -bench 'BenchmarkFPVA_' -benchtime "${BENCHTIME:-2s}" .)
echo "$fpva_out"
echo "$fpva_out" | awk '
  $1 ~ /^BenchmarkFPVA_Solve3x3/        { s3 = $3 }
  $1 ~ /^BenchmarkFPVA_Solve4x4/        { s4 = $3 }
  $1 ~ /^BenchmarkFPVA_TestPatterns4x4/ { p4 = $3 }
  $1 ~ /^BenchmarkFPVA_TestPatterns8x8/ { p8 = $3 }
  $1 ~ /^BenchmarkFPVA_Diagnose8x8/     { d8 = $3 }
  END {
    if (s3 == "" || s4 == "" || p4 == "" || p8 == "" || d8 == "") {
      print "ci.sh: fpva benchmark output incomplete" > "/dev/stderr"
      exit 1
    }
    scaling = p8 / p4
    printf "{\n"
    printf "  \"solve3x3NsPerOp\": %.0f,\n", s3
    printf "  \"solve4x4NsPerOp\": %.0f,\n", s4
    printf "  \"testPatterns4x4NsPerOp\": %.0f,\n", p4
    printf "  \"testPatterns8x8NsPerOp\": %.0f,\n", p8
    printf "  \"diagnose8x8NsPerOp\": %.0f,\n", d8
    printf "  \"patternGen8x8Over4x4\": %.1f\n", scaling
    printf "}\n"
    if (scaling > 60.0) {
      printf "ci.sh: 8x8 pattern generation %.1fx the 4x4 cost, > 60x gate\n", scaling > "/dev/stderr"
      exit 1
    }
  }' > BENCH_fpva.json
cat BENCH_fpva.json

echo "ci.sh: OK"
