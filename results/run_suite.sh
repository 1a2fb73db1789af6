#!/bin/bash
# Paper-scale runs for the main accuracy figures, from the repository
# root whatever the caller's working directory.
cd "$(dirname "$0")/.."
# Tier-1 gate first: hermetic build + tests + static analysis +
# formatting, plus the chaos (fault-injection + checkpoint/resume) pass —
# a long campaign must be provably resumable and degradation-tolerant
# before hours are spent regenerating figures — the obs pass, which
# schema-validates a traced quickstart end to end, the par pass, which
# proves reports are byte-identical across worker thread counts, and the
# serve pass, which kill-and-replays the prediction daemon (leaving the
# verified response journal in results/serve_replay.jsonl).
./ci.sh --chaos --obs --par --perf --serve || { echo CI_FAILED; exit 1; }
# Belt-and-braces: the figures below are only trustworthy if the run is
# bit-reproducible, so re-assert the lint gate explicitly — in --json
# mode, refreshing the machine-readable finding record that ci.sh also
# archives (workspace-relative paths only, so the artifact is
# machine-independent and committable).
cargo run -q --release --offline -p dynawave-lint -- --json \
  > results/lint_findings.jsonl || { echo LINT_FAILED; exit 1; }
echo LINT_OK
# Fresh perf snapshot: one obs-schema JSON line per microbenchmark
# (per-stage ns/op for sim, DWT, RBF fit/predict, and the end-to-end
# pipeline with tracing off/on). BENCH_seed.json is the *immutable*
# ratchet baseline and is never rewritten here — each suite run lands in
# BENCH_10.json (now including the serve/ daemon telemetry lines:
# steady-state batched prediction, malformed-request shedding, and the
# stats introspection probe), and compare_bench diffs the two below.
cargo bench --offline -q -p dynawave-bench --bench microbench \
  > BENCH_10.json 2> results/bench.log && echo BENCH10_OK || echo BENCH10_FAIL
# Parallel-campaign baseline: full-space campaign wall clock at 1 vs 4
# worker threads plus the derived speedup and the machine's available
# parallelism (the speedup is only interpretable next to that number).
cargo run -q --release --offline -p dynawave-bench --bin campaign_parallel \
  > BENCH_6.json 2> results/bench_parallel.log && echo BENCH6_OK || echo BENCH6_FAIL
# Perf trajectory: noise-aware diff of the fresh snapshot against the
# committed seed baseline. Soft by default — the markdown report is the
# artifact; flagged regressions print to stderr for the suite log.
cargo run -q --release --offline -p dynawave-obs --bin compare_bench -- \
  BENCH_seed.json BENCH_10.json > results/perf_trajectory.md \
  && echo TRAJECTORY_OK || echo TRAJECTORY_FAIL
# Serve SLO report: trace a canonical daemon session, render the SLO
# attribution section plus explicit p99 verdicts into a committed
# artifact. The session mirrors the ci.sh --serve battery (predict,
# sweep, a stats probe, an error path) at deterministic tiny scale.
{
  P1="[2,3,4,5,6,7,8,9,10]"; P2="[3.5,4,5,6,7,8,9,10,11]"
  echo "{\"schema\":\"dynawave-serve\",\"v\":1,\"id\":\"s1\",\"kind\":\"predict\",\"benchmark\":\"gcc\",\"metric\":\"cpi\",\"points\":[$P1,$P2]}"
  echo "{\"schema\":\"dynawave-serve\",\"v\":1,\"id\":\"s2\",\"kind\":\"sweep\",\"benchmark\":\"gcc\",\"metric\":\"cpi\",\"base\":$P1,\"axis\":0,\"values\":[2,4,8]}"
  echo "{\"schema\":\"dynawave-serve\",\"v\":1,\"id\":\"s3\",\"kind\":\"predict\",\"benchmark\":\"gcc\",\"metric\":\"cpi\",\"points\":[$P2]}"
  echo "{\"schema\":\"dynawave-serve\",\"v\":1,\"id\":\"s4\",\"kind\":\"stats\"}"
} > results/serve_slo_requests.jsonl
{
  DYNAWAVE_TRAIN=12 DYNAWAVE_TEST=2 DYNAWAVE_SAMPLES=16 \
    DYNAWAVE_INTERVAL=300 DYNAWAVE_TRACE=1 \
    cargo run -q --release --offline -p dynawave-core --bin serve \
    < results/serve_slo_requests.jsonl \
    > results/serve_slo_transcript.jsonl 2> results/serve_slo_trace.jsonl \
    && cargo run -q --release --offline -p dynawave-obs --bin obs_report -- \
      results/serve_slo_trace.jsonl \
    && echo \
    && echo '## SLO verdicts' \
    && echo \
    && { cargo run -q --release --offline -p dynawave-obs --bin obs_report -- \
           --slo 'predict:p99<=65536' --slo 'sweep:p99<=65536' \
           results/serve_slo_trace.jsonl || true; }
} > results/serve_slo.md && echo SERVE_SLO_OK || echo SERVE_SLO_FAIL
rm -f results/serve_slo_requests.jsonl results/serve_slo_trace.jsonl
export DYNAWAVE_TRAIN=200 DYNAWAVE_TEST=50 DYNAWAVE_SAMPLES=128 DYNAWAVE_INTERVAL=2048
for fig in fig07_rank_consistency fig08_accuracy fig09_coeff_sweep fig11_star_plots fig13_threshold_classification fig14_bzip2_traces; do
  echo "=== $fig ==="
  cargo run --release -p dynawave-bench --bin $fig > results/$fig.txt 2> results/$fig.log && echo OK || echo FAIL
done
# Reduced scale for the heavy DVM/sweep figures
export DYNAWAVE_TRAIN=100 DYNAWAVE_TEST=25
for fig in fig10_sample_sweep fig17_dvm_scenarios fig18_dvm_heatmap fig19_dvm_thresholds ablation_selection ablation_model ablation_wavelet ablation_sampling ablation_global; do
  echo "=== $fig ==="
  cargo run --release -p dynawave-bench --bin $fig > results/$fig.txt 2> results/$fig.log && echo OK || echo FAIL
done
export DYNAWAVE_TRAIN=40 DYNAWAVE_TEST=10 DYNAWAVE_SAMPLES=64 DYNAWAVE_INTERVAL=1024
for fig in table1 table2 fig01_variation fig02_haar_example fig04_reconstruction; do
  cargo run --release -p dynawave-bench --bin $fig > results/$fig.txt 2> results/$fig.log && echo OK || echo FAIL
done
# Simulator-only figures at the scales their headers name.
for run in "fig16_dvm_demo 64 1024" "casestudy_dtm 128 2048" "ablation_features 32 1024"; do
  set -- $run
  DYNAWAVE_TRAIN=200 DYNAWAVE_TEST=50 DYNAWAVE_SAMPLES=$2 DYNAWAVE_INTERVAL=$3 \
    cargo run --release -p dynawave-bench --bin $1 > results/$1.txt 2> results/$1.log && echo OK || echo FAIL
done
echo ALL_DONE
