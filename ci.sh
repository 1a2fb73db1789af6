#!/bin/bash
# Tier-1 verification for the dynawave workspace.
#
# The workspace is hermetic: zero external crate dependencies, so every
# step below runs with the network disabled. --offline makes any
# accidental reintroduction of a registry dependency a hard failure
# rather than a silent download.
set -euo pipefail
cd "$(dirname "$0")"

# --chaos adds the deterministic fault-injection pass: every `chaos_`
# test (seeded FaultPlan runs exercising the recovery ladder) plus the
# campaign checkpoint/resume suite.
# --obs adds the observability pass: a traced quickstart run whose
# JSON-lines event stream must validate with zero invalid lines and
# cover all five pipeline stages, and whose derived `obs_report` render
# must be byte-identical at 1 and 4 worker threads, as must the raw
# streams themselves; the same stream with
# one histogram's overflow bucket cut off must make `obs_report` exit 2.
# --par adds the parallel-determinism pass: the concurrency test battery
# plus a byte-for-byte comparison of the full-space demo's report at 1,
# 4 and 100000 worker threads — the report must not depend on thread
# count, and a huge count must not exhaust the OS — a check that no
# journal temp file or shard sidecar is left behind, and a demo start-up
# with DYNAWAVE_SAMPLES=0 that must exit 2 naming the variable.
# --perf adds the perf-trajectory ratchet: a quick microbench subset
# (wavelet, simulator/run, rbf and predictor/predict lines, the last
# filter also matching predictor/predict_mean) diffed
# against the committed BENCH_seed.json baseline with
# compare_bench. Soft by default (regressions warn, like the lint
# baseline); --strict-perf turns flagged regressions into failures.
# --serve adds the daemon chaos gate: the serve test battery (replay
# byte-identity, 12k-case fuzz corpus, deadline/backpressure), a
# kill-and-replay determinism check across DYNAWAVE_THREADS 1 and 4
# with a `stats` introspection probe mid-battery (the transcript itself
# must pass the dual-schema validator) that leaves no journal temp file
# behind, a seeded journal-fault chaos run, a traced daemon session
# whose obs stream must validate with the `serve` stage present, and a
# chaos-forced flight-recorder dump that must itself be a valid obs
# stream, and a start-up with DYNAWAVE_SAMPLES=0 that must exit 2
# naming the variable instead of panicking.
CHAOS=0
OBS=0
PAR=0
PERF=0
STRICT_PERF=0
SERVE=0
for arg in "$@"; do
  case "$arg" in
    --chaos) CHAOS=1 ;;
    --obs) OBS=1 ;;
    --par) PAR=1 ;;
    --perf) PERF=1 ;;
    --strict-perf) PERF=1; STRICT_PERF=1 ;;
    --serve) SERVE=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

# One scratch dir for every optional pass; traps replace, so a single
# EXIT trap owning a single tree is the robust shape.
CI_TMP="$(mktemp -d)"
trap 'rm -rf "$CI_TMP"' EXIT

# Journals are rewritten through `<path>.tmp` + rename, and a campaign
# writes its one journal and no `<path>.shard<k>` sidecar: after a pass
# whose temp dir is $CI_TMP, neither kind of file may remain there.
assert_no_journal_leftovers() {
  local leftovers
  leftovers="$(find "$CI_TMP" \( -name '*.tmp' -o -name '*.shard*' \) -print)"
  if [ -n "$leftovers" ]; then
    echo "leftover journal files after $1:" >&2
    echo "$leftovers" >&2
    exit 1
  fi
}

echo "=== cargo build --release --offline ==="
# --all-targets also compiles the microbench, which `cargo test` never
# builds; the benchmark driver under dsebench/ is its own package.
cargo build --release --offline --workspace --all-targets
cargo build --release --offline --manifest-path dsebench/Cargo.toml

echo "=== cargo test -q --offline ==="
cargo test -q --offline --workspace

if [ "$CHAOS" = 1 ]; then
  echo "=== chaos: deterministic fault-injection suite ==="
  cargo test -q --offline -p dynawave-core chaos
  cargo test -q --offline -p dynawave-core --test campaign
fi

if [ "$OBS" = 1 ]; then
  echo "=== obs: traced quickstart through schema validator ==="
  # The quickstart writes its event stream to stderr (stdout stays
  # human-readable), so capture stderr alone and feed it to the
  # validator: zero invalid lines, all five pipeline stages present,
  # per-kind/per-stage counts in the CI log.
  DYNAWAVE_TRACE=1 DYNAWAVE_THREADS=1 cargo run -q --release --offline \
    -p dynawave-core --example quickstart > /dev/null 2> "$CI_TMP/obs_t1.jsonl"
  cargo run -q --release --offline -p dynawave-obs --bin obs_validate -- \
    --stats --require-stages sim,wavelet,neural,predictor,campaign \
    < "$CI_TMP/obs_t1.jsonl"
  # Analysis gate: the derived obs_report (self/inclusive time, unit
  # latencies, rollups) must also be byte-identical across worker
  # thread counts — the stream already is; this pins the analyzer too.
  DYNAWAVE_TRACE=1 DYNAWAVE_THREADS=4 cargo run -q --release --offline \
    -p dynawave-core --example quickstart > /dev/null 2> "$CI_TMP/obs_t4.jsonl"
  cargo run -q --release --offline -p dynawave-obs --bin obs_report \
    < "$CI_TMP/obs_t1.jsonl" > "$CI_TMP/obs_report_t1.md"
  cargo run -q --release --offline -p dynawave-obs --bin obs_report \
    < "$CI_TMP/obs_t4.jsonl" > "$CI_TMP/obs_report_t4.md"
  cmp "$CI_TMP/obs_report_t1.md" "$CI_TMP/obs_report_t4.md"
  echo "obs_report byte-identical across thread counts"
  # The raw streams too: trace collection, scoring and training fan out
  # over the worker threads, and place every event by rank.
  cmp "$CI_TMP/obs_t1.jsonl" "$CI_TMP/obs_t4.jsonl"
  echo "traced quickstart stream byte-identical across thread counts"
  # The analyzer reads lines through the validator's decoders: a stream
  # whose first histogram lost its last count (counts no longer one
  # longer than bounds) is refused with exit 2 and no report.
  awk '!done && /"kind":"hist"/ { sub(/,[0-9]+\]}$/, "]}"); done = 1 } { print }' \
    "$CI_TMP/obs_t1.jsonl" > "$CI_TMP/obs_bad.jsonl"
  if cmp -s "$CI_TMP/obs_t1.jsonl" "$CI_TMP/obs_bad.jsonl"; then
    echo "quickstart stream has no histogram line to break" >&2
    exit 1
  fi
  status=0
  cargo run -q --release --offline -p dynawave-obs --bin obs_report \
    < "$CI_TMP/obs_bad.jsonl" > "$CI_TMP/obs_bad_report.md" 2> /dev/null \
    || status=$?
  [ "$status" = 2 ]
  [ ! -s "$CI_TMP/obs_bad_report.md" ]
  echo "obs_report refuses a histogram without its overflow bucket"
fi

if [ "$PAR" = 1 ]; then
  echo "=== par: thread-count determinism matrix ==="
  # The dedicated concurrency battery: byte-identical reports and
  # journals across thread counts, a killed 4-shard run resumed at 1-4
  # threads, chaos degradation independence, and the seeded property that
  # resumes out-of-order, torn journals to the sequential oracle's bytes.
  TMPDIR="$CI_TMP" cargo test -q --offline -p dynawave-core --test parallel
  # Hard gate: the full-space demo's stdout (the report document) must
  # be byte-identical at 1 and 4 worker threads. Small scale keeps the
  # matrix cheap; stderr (timings) is machine-dependent and discarded.
  for t in 1 4; do
    TMPDIR="$CI_TMP" DYNAWAVE_THREADS=$t DYNAWAVE_TRAIN=8 DYNAWAVE_TEST=3 \
      DYNAWAVE_SAMPLES=8 DYNAWAVE_INTERVAL=400 \
      cargo run -q --release --offline -p dynawave-core \
      --example parallel_campaign > "$CI_TMP/par_t$t.txt" 2> /dev/null
  done
  cmp "$CI_TMP/par_t1.txt" "$CI_TMP/par_t4.txt"
  echo "parallel reports byte-identical across thread counts"
  assert_no_journal_leftovers "the kill-and-resume battery"
  # A thread count far above the point count starts one worker per
  # pending point, writes one journal, and reports the same bytes.
  TMPDIR="$CI_TMP" DYNAWAVE_THREADS=100000 DYNAWAVE_TRAIN=8 DYNAWAVE_TEST=3 \
    DYNAWAVE_SAMPLES=8 DYNAWAVE_INTERVAL=400 \
    cargo run -q --release --offline -p dynawave-core \
    --example parallel_campaign > "$CI_TMP/par_t100000.txt" 2> /dev/null
  cmp "$CI_TMP/par_t1.txt" "$CI_TMP/par_t100000.txt"
  echo "parallel report byte-identical at DYNAWAVE_THREADS=100000"
  assert_no_journal_leftovers "the DYNAWAVE_THREADS=100000 run"
  # A scale the simulator cannot run is refused at start-up: exit status
  # 2 with the variable named on stderr, never a panic in a worker.
  status=0
  TMPDIR="$CI_TMP" DYNAWAVE_THREADS=4 DYNAWAVE_TRAIN=8 DYNAWAVE_TEST=3 \
    DYNAWAVE_SAMPLES=0 DYNAWAVE_INTERVAL=400 \
    cargo run -q --release --offline -p dynawave-core \
    --example parallel_campaign > /dev/null 2> "$CI_TMP/par_badenv.err" \
    || status=$?
  [ "$status" = 2 ]
  grep -q 'DYNAWAVE_SAMPLES' "$CI_TMP/par_badenv.err"
  if grep -q 'panicked' "$CI_TMP/par_badenv.err"; then
    echo "parallel_campaign panicked on DYNAWAVE_SAMPLES=0" >&2
    exit 1
  fi
  echo "parallel_campaign refuses an invalid DYNAWAVE_SAMPLES before running"
fi

if [ "$SERVE" = 1 ]; then
  echo "=== serve: kill-safe daemon chaos gate ==="
  # The dedicated battery first: kill-and-replay byte-identity, chaos
  # determinism, the fuzz corpus (one well-formed response per request,
  # always), deadline budgets and backpressure.
  TMPDIR="$CI_TMP" cargo test -q --offline -p dynawave-core --test serve
  # End-to-end kill-and-replay at small scale. A live run journals its
  # responses; the journal is torn mid-line (simulated kill -9) and the
  # daemon must rebuild it byte-for-byte from the request log — and the
  # transcript must not depend on DYNAWAVE_THREADS. The request log
  # covers every model-backed kind (predict, sweep, pareto, topk) and a
  # partial answer, all on gcc's three models.
  SERVE_SCALE="DYNAWAVE_TRAIN=12 DYNAWAVE_TEST=2 DYNAWAVE_SAMPLES=16 DYNAWAVE_INTERVAL=300"
  {
    P1="[2,3,4,5,6,7,8,9,10]"; P2="[3.5,4,5,6,7,8,9,10,11]"
    echo "{\"schema\":\"dynawave-serve\",\"v\":1,\"id\":\"c1\",\"kind\":\"predict\",\"benchmark\":\"gcc\",\"metric\":\"cpi\",\"points\":[$P1,$P2]}"
    echo "not json at all"
    echo "{\"schema\":\"dynawave-serve\",\"v\":1,\"id\":\"c2\",\"kind\":\"sweep\",\"benchmark\":\"gcc\",\"metric\":\"cpi\",\"base\":$P1,\"axis\":0,\"values\":[2,4,8]}"
    echo "{\"schema\":\"dynawave-serve\",\"v\":1,\"id\":\"c-stats\",\"kind\":\"stats\"}"
    echo "{\"schema\":\"dynawave-serve\",\"v\":1,\"id\":\"c3\",\"kind\":\"predict\",\"benchmark\":\"nope\"}"
    echo "{\"schema\":\"dynawave-serve\",\"v\":1,\"id\":\"c4\",\"kind\":\"pareto\",\"benchmark\":\"gcc\",\"points\":[$P1,$P2]}"
    echo "{\"schema\":\"dynawave-serve\",\"v\":1,\"id\":\"c5\",\"kind\":\"topk\",\"benchmark\":\"gcc\",\"k\":1,\"power_budget\":1e9,\"points\":[$P1,$P2]}"
    # A one-tick budget covers one of the two cached predictions: partial.
    echo "{\"schema\":\"dynawave-serve\",\"v\":1,\"id\":\"c6\",\"kind\":\"predict\",\"benchmark\":\"gcc\",\"metric\":\"cpi\",\"deadline\":1,\"points\":[$P1,$P2]}"
  } > "$CI_TMP/serve_requests.jsonl"
  for t in 1 4; do
    env $SERVE_SCALE DYNAWAVE_THREADS=$t \
      cargo run -q --release --offline -p dynawave-core --bin serve -- \
      --journal "$CI_TMP/serve_t$t.journal" \
      < "$CI_TMP/serve_requests.jsonl" > "$CI_TMP/serve_t$t.out" 2> /dev/null
  done
  cmp "$CI_TMP/serve_t1.out" "$CI_TMP/serve_t4.out"
  # The transcript (including the mid-battery stats snapshot) is itself
  # a valid dynawave-serve stream under the dual-schema validator.
  grep -q '"kind":"stats"' "$CI_TMP/serve_t1.out"
  cargo run -q --release --offline -p dynawave-obs --bin obs_validate -- \
    --require-stages serve < "$CI_TMP/serve_t1.out"
  # Tear the t1 journal inside its final line, then replay.
  head -c "$(($(wc -c < "$CI_TMP/serve_t1.journal") - 23))" \
    "$CI_TMP/serve_t1.journal" > "$CI_TMP/serve_torn.journal"
  cp "$CI_TMP/serve_t1.journal" "$CI_TMP/serve_reference.journal"
  mv "$CI_TMP/serve_torn.journal" "$CI_TMP/serve_t1.journal"
  env $SERVE_SCALE \
    cargo run -q --release --offline -p dynawave-core --bin serve -- \
    --journal "$CI_TMP/serve_t1.journal" \
    --replay "$CI_TMP/serve_requests.jsonl" > "$CI_TMP/serve_replay.out" 2> /dev/null
  cmp "$CI_TMP/serve_t1.journal" "$CI_TMP/serve_reference.journal"
  cmp "$CI_TMP/serve_replay.out" "$CI_TMP/serve_t1.out"
  echo "serve replay byte-identical across kill and thread counts"
  assert_no_journal_leftovers "the kill-and-replay round trip"
  # Journal-fault chaos: rate-1.0 injected append faults must freeze the
  # journal at its header while every request still gets a response.
  env $SERVE_SCALE \
    cargo run -q --release --offline -p dynawave-core --bin serve -- \
    --journal "$CI_TMP/serve_chaos.journal" --chaos-seed 3 --chaos-rate 1.0 \
    --chaos-journal < "$CI_TMP/serve_requests.jsonl" \
    > "$CI_TMP/serve_chaos.out" 2> /dev/null
  [ "$(wc -l < "$CI_TMP/serve_chaos.out")" = \
    "$(wc -l < "$CI_TMP/serve_requests.jsonl")" ]
  [ "$(wc -l < "$CI_TMP/serve_chaos.journal")" = 2 ]
  echo "serve chaos: journal degraded, service uninterrupted"
  # Observability: a traced daemon session's stderr is a pure obs stream
  # that must validate with the `serve` stage present.
  env $SERVE_SCALE DYNAWAVE_TRACE=1 \
    cargo run -q --release --offline -p dynawave-core --bin serve -- \
    < "$CI_TMP/serve_requests.jsonl" > /dev/null 2> "$CI_TMP/serve_trace.jsonl"
  cargo run -q --release --offline -p dynawave-obs --bin obs_validate -- \
    --require-stages serve < "$CI_TMP/serve_trace.jsonl"
  # One simulation per training point: gcc's CPI, power and AVF models
  # all train from a single simulation of its DYNAWAVE_TRAIN=12 points.
  runs=$(grep -c '"kind":"span_enter","name":"sim.run_trace"' "$CI_TMP/serve_trace.jsonl" || true)
  if [ "$runs" != 12 ]; then
    echo "serve simulated $runs training points, want 12" >&2
    exit 1
  fi
  echo "serve: one simulator run per training point"
  # SLO soft gate: the traced session's predict tail latency, checked by
  # obs_report --slo. Soft like the perf ratchet — a violation warns.
  cargo run -q --release --offline -p dynawave-obs --bin obs_report -- \
    --slo 'predict:p99<=65536' "$CI_TMP/serve_trace.jsonl" \
    || echo "WARN: serve SLO violated (soft gate)"
  # Flight recorder: solver chaos at rate 1.0 under --strict-recovery
  # forces a train-failed internal error; the armed ring must dump once,
  # and the dump must itself be a valid obs stream with the serve stage.
  env $SERVE_SCALE \
    cargo run -q --release --offline -p dynawave-core --bin serve -- \
    --flight-recorder 64 --strict-recovery --chaos-seed 7 --chaos-rate 1.0 \
    < "$CI_TMP/serve_requests.jsonl" \
    > /dev/null 2> "$CI_TMP/serve_flight.jsonl"
  grep -q 'reason=internal-error' "$CI_TMP/serve_flight.jsonl"
  cargo run -q --release --offline -p dynawave-obs --bin obs_validate -- \
    --require-stages serve < "$CI_TMP/serve_flight.jsonl"
  echo "serve flight-recorder dump validates"
  # A scale the simulator cannot run is refused at start-up: exit status
  # 2 with the variable named on stderr, never a panic on first predict.
  status=0
  env $SERVE_SCALE DYNAWAVE_SAMPLES=0 \
    cargo run -q --release --offline -p dynawave-core --bin serve -- \
    < "$CI_TMP/serve_requests.jsonl" > /dev/null 2> "$CI_TMP/serve_badenv.err" \
    || status=$?
  [ "$status" = 2 ]
  grep -q 'DYNAWAVE_SAMPLES' "$CI_TMP/serve_badenv.err"
  if grep -q 'panicked' "$CI_TMP/serve_badenv.err"; then
    echo "serve panicked on DYNAWAVE_SAMPLES=0" >&2
    exit 1
  fi
  echo "serve refuses an invalid DYNAWAVE_SAMPLES before serving"
  mkdir -p results
  cp "$CI_TMP/serve_t1.journal" results/serve_replay.jsonl
fi

if [ "$PERF" = 1 ]; then
  echo "=== perf: trajectory ratchet vs BENCH_seed.json ==="
  # A quick microbench subset (the wavelet stage, the simulator's runs
  # of gcc and mcf, the RBF kernels, which fit one network on one
  # thread, so a kernel regression cannot hide behind the training
  # fan-out, and one predictor's forecast through its merged basis and
  # its mean-only forecast, both matched by the predictor/predict
  # substring) at
  # reduced sampling, diffed against the committed seed baseline. Only
  # noise-aware flags count: a delta must beat the relative threshold
  # AND escape the baseline's min/max band.
  # Benches outside the subset show up as "Removed" in the report, which
  # is informational.
  : > "$CI_TMP/bench_now.json"
  for filter in wavelet simulator/run/ rbf/ predictor/predict; do
    DYNAWAVE_BENCH_SAMPLES=7 DYNAWAVE_BENCH_MIN_BATCH_MS=5 \
      cargo bench --offline -q -p dynawave-bench --bench microbench -- "$filter" \
      >> "$CI_TMP/bench_now.json"
  done
  STRICT_FLAG=""
  [ "$STRICT_PERF" = 1 ] && STRICT_FLAG="--strict"
  cargo run -q --release --offline -p dynawave-obs --bin compare_bench -- \
    $STRICT_FLAG BENCH_seed.json "$CI_TMP/bench_now.json"
fi

echo "=== dynawave-lint ==="
# Static analysis gate: determinism, panic-freedom, hermetic deps,
# panic-reachability, concurrency containment and schema drift (rules
# D001-D013, see DESIGN.md). Exits nonzero on any finding not covered
# by lint-baseline.toml. --json emits the findings as a dynawave-obs
# event stream; the stream itself must pass the schema validator, and
# the archived copy in results/ is the machine-readable lint record.
cargo run -q --release --offline -p dynawave-lint -- --json \
  > "$CI_TMP/lint_findings.jsonl"
cargo run -q --release --offline -p dynawave-obs --bin obs_validate -- \
  --require-stages lint < "$CI_TMP/lint_findings.jsonl"
mkdir -p results
cp "$CI_TMP/lint_findings.jsonl" results/lint_findings.jsonl

echo "=== cargo fmt --check ==="
cargo fmt --check

echo "CI_OK"
