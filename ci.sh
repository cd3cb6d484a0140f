#!/usr/bin/env bash
# CI gate for the HDPAT reproduction. Ordered cheapest-first so fast failures
# come fast: formatting, clippy (plain, each of the audit/trace/telemetry
# features, and all three combined), the determinism lint pass with its JSON
# artifact (DESIGN.md §8.1/§13), rustdoc (warnings denied) + doctests, then the tier-1 build +
# tests, the full workspace suite, the trace determinism gate (DESIGN.md §10),
# the telemetry determinism gates (DESIGN.md §12: observational parity plus
# timeline/heatmap artifacts byte-identical across --jobs; both gates also
# run the request-slot goldens), the probe artifact digest check (trace and
# perfetto files against committed sha256 sums, DESIGN.md §16.5), the per-feature
# equivalence gates and golden lane (fig14 byte-identical under each of the
# audit/trace/telemetry builds and all three combined), the
# EXPERIMENTS.md and PROTOCOL.md drift gates (DESIGN.md §9, §14), the serve
# lane (DESIGN.md §14: batch and socket replays of the fig14 request mix must
# digest byte-identically, with the warm pass answered entirely from the
# persistent run cache, plus cross-process cache reuse by `figure fig14`),
# the ops lane (a daemon with --ops-log/--metrics-out must produce a
# byte-identical replay digest, a reconciling metrics snapshot, and a
# complete request-lifecycle log), and the perf-trajectory gate (DESIGN.md §11/§16): fig14 must stay
# byte-identical to the pre-PR-4 golden run, and its measured serial events/s
# must stay within 10% of the committed BENCH_PR9.json trajectory point.
# `./ci.sh pgo` runs the opt-in profile-guided-optimization lane instead
# (see below).
set -euo pipefail
cd "$(dirname "$0")"

# Opt-in PGO lane (DESIGN.md §16): `./ci.sh pgo` builds the bench binary
# with -Cprofile-generate, trains it on the fig14 bench sweep (golden-
# checked, so the training run is also a correctness run), merges the raw
# profiles with llvm-profdata, rebuilds with -Cprofile-use, and re-checks
# the golden plus emits a perf artifact. It needs an llvm-profdata matching
# the active rustc's LLVM (rustup's llvm-tools component, or
# WSG_LLVM_PROFDATA=/path/to/llvm-profdata); an older system LLVM cannot
# read the instrumented binary's .profraw format and fails the merge — the
# lane diagnoses that instead of silently passing.
if [[ "${1:-}" == "pgo" ]]; then
  mkdir -p target/ci
  profdata="${WSG_LLVM_PROFDATA:-}"
  if [[ -z "$profdata" ]]; then
    sysroot="$(rustc --print sysroot)"
    for cand in "$sysroot"/lib/rustlib/*/bin/llvm-profdata; do
      [[ -x "$cand" ]] && profdata="$cand" && break
    done
  fi
  if [[ -z "$profdata" ]]; then
    profdata="$(command -v llvm-profdata || true)"
  fi
  if [[ -z "$profdata" ]]; then
    echo "pgo: no llvm-profdata found (install rustup's llvm-tools or set WSG_LLVM_PROFDATA)" >&2
    exit 2
  fi
  echo "== pgo: instrumented build (-Cprofile-generate)"
  profdir="$PWD/target/pgo-profiles"
  rm -rf "$profdir"
  RUSTFLAGS="-Cprofile-generate=$profdir" cargo build --release -q -p wsg-bench
  echo "== pgo: training run (fig14 bench sweep, golden-checked)"
  ./target/release/hdpat-sim figure fig14 --scale bench --no-cache \
      > target/ci/fig14_pgo_train.txt
  cmp tests/golden/fig14_bench.txt target/ci/fig14_pgo_train.txt
  echo "== pgo: merging profiles with $profdata"
  if ! "$profdata" merge -o "$profdir/merged.profdata" "$profdir"; then
    echo "pgo: $profdata cannot read this rustc's .profraw format;" >&2
    echo "pgo: use the llvm-profdata matching rustc's LLVM (rustup component add llvm-tools)" >&2
    exit 2
  fi
  echo "== pgo: optimized rebuild (-Cprofile-use) + golden re-check"
  RUSTFLAGS="-Cprofile-use=$profdir/merged.profdata" cargo build --release -q -p wsg-bench
  ./target/release/hdpat-sim figure fig14 --scale bench --no-cache \
      --perf-out target/ci/BENCH_PGO.json > target/ci/fig14_pgo.txt
  cmp tests/golden/fig14_bench.txt target/ci/fig14_pgo.txt
  cat target/ci/BENCH_PGO.json
  # Leave the default (uninstrumented) binary in place.
  cargo build --release -q -p wsg-bench
  echo "PGO lane green."
  exit 0
fi

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== cargo clippy (workspace, -D warnings)"
cargo clippy --workspace --all-targets -q -- -D warnings

echo "== cargo clippy (audit feature, -D warnings)"
cargo clippy -p hdpat-wafer --all-targets --features audit -q -- -D warnings

echo "== cargo clippy (trace feature, -D warnings)"
cargo clippy -p hdpat-wafer --all-targets --features trace -q -- -D warnings

echo "== cargo clippy (telemetry feature, -D warnings)"
cargo clippy -p hdpat-wafer --all-targets --features telemetry -q -- -D warnings

echo "== cargo clippy (selfprof feature, -D warnings)"
cargo clippy -p hdpat-wafer --all-targets --features selfprof -q -- -D warnings

echo "== cargo clippy (audit+trace+telemetry+selfprof combined, -D warnings)"
cargo clippy -p hdpat-wafer --all-targets --features audit,trace,telemetry,selfprof -q -- -D warnings

echo "== determinism lint (cargo run -p xtask -- lint --json)"
mkdir -p target/ci
cargo run -p xtask -q -- lint --json > target/ci/lint.json
# The JSON artifact must agree with the exit status: zero diagnostics.
grep -q '"violations": 0,' target/ci/lint.json

echo "== rustdoc (workspace, -D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "== doctests"
cargo test --workspace --doc -q

echo "== tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

echo "== workspace tests"
cargo test --workspace -q

echo "== trace determinism gate (tests/trace_determinism.rs, tests/request_slots.rs)"
cargo test --features trace --test trace_determinism -q
cargo test --features trace --test request_slots -q

echo "== telemetry determinism gate (tests/telemetry_determinism.rs, tests/request_slots.rs)"
cargo test --features telemetry --test telemetry_determinism -q
cargo test --features telemetry --test request_slots -q

echo "== equivalence gate (tests/equivalence.rs, per feature set)"
cargo test --release --test equivalence -q
cargo test --release --features audit --test equivalence -q
cargo test --release --features trace --test equivalence -q
cargo test --release --features telemetry --test equivalence -q

echo "== per-feature golden lane (fig14 bench byte-identical under each observability build)"
mkdir -p target/ci
for feat in audit trace telemetry audit,trace,telemetry; do
  cargo build --release -q --features "$feat" -p wsg-bench
  ./target/release/hdpat-sim figure fig14 --scale bench --no-cache --jobs 1 \
      > "target/ci/fig14_${feat//,/_}.txt"
  cmp tests/golden/fig14_bench.txt "target/ci/fig14_${feat//,/_}.txt"
done
# Leave the default (feature-off) binary in place for the lanes below.
cargo build --release -q -p wsg-bench

echo "== trace on/off run parity (hdpat-sim run output byte-identical)"
mkdir -p target/ci
cargo build --release -q -p wsg-bench
./target/release/hdpat-sim run KM hdpat --scale unit --seed 7 > target/ci/run_plain.txt
cargo build --release -q --features trace -p wsg-bench
./target/release/hdpat-sim run KM hdpat --scale unit --seed 7 > target/ci/run_traced.txt
cmp target/ci/run_plain.txt target/ci/run_traced.txt

echo "== selfprof on/off run parity (hdpat-sim run output byte-identical)"
cargo build --release -q --features selfprof -p wsg-bench
./target/release/hdpat-sim run KM hdpat --scale unit --seed 7 > target/ci/run_selfprof.txt
cmp target/ci/run_plain.txt target/ci/run_selfprof.txt

echo "== telemetry on/off run parity (hdpat-sim run output byte-identical)"
# Last parity build on purpose: the artifact lane below drives this binary's
# timeline/heatmap subcommands, which need the telemetry feature compiled in.
cargo build --release -q --features telemetry -p wsg-bench
./target/release/hdpat-sim run KM hdpat --scale unit --seed 7 > target/ci/run_telemetry.txt
cmp target/ci/run_plain.txt target/ci/run_telemetry.txt

echo "== telemetry artifacts: 3 benchmarks x 2 policies, --jobs 1 vs --jobs 4"
for b in SPMV KM RELU; do
  for p in naive hdpat; do
    ./target/release/hdpat-sim timeline "$b" --policy "$p" --scale unit \
        --jobs 1 --out "target/ci/tl_${b}_${p}_j1.csv" 2> /dev/null
    ./target/release/hdpat-sim timeline "$b" --policy "$p" --scale unit \
        --jobs 4 --out "target/ci/tl_${b}_${p}_j4.csv" 2> /dev/null
    cmp "target/ci/tl_${b}_${p}_j1.csv" "target/ci/tl_${b}_${p}_j4.csv"
    # Non-empty means more than the CSV header line.
    test "$(wc -l < "target/ci/tl_${b}_${p}_j1.csv")" -gt 1
    ./target/release/hdpat-sim heatmap "$b" --policy "$p" --scale unit \
        --jobs 1 --out "target/ci/hm_${b}_${p}_j1.csv" 2> /dev/null
    ./target/release/hdpat-sim heatmap "$b" --policy "$p" --scale unit \
        --jobs 4 --out "target/ci/hm_${b}_${p}_j4.csv" 2> /dev/null
    cmp "target/ci/hm_${b}_${p}_j1.csv" "target/ci/hm_${b}_${p}_j4.csv"
    test "$(wc -l < "target/ci/hm_${b}_${p}_j1.csv")" -gt 1
  done
done

echo "== probe artifact digests (trace + perfetto, SPMV x naive/hdpat, unit scale)"
# Request ids in the artifacts are issue serials, not request-slot indices
# (DESIGN.md §16.5), so slot recycling must not move a single byte.
cargo build --release -q --features trace,telemetry -p wsg-bench
for p in naive hdpat; do
  ./target/release/hdpat-sim trace SPMV --policy "$p" --scale unit \
      --out "target/ci/trace_SPMV_${p}.json" > /dev/null 2>&1
  ./target/release/hdpat-sim timeline SPMV --policy "$p" --scale unit \
      --format perfetto --out "target/ci/perfetto_SPMV_${p}.json" 2> /dev/null
done
sha256sum -c tests/golden/probe_artifacts.sha256

# Leave the default (feature-off) binary in place for the drift gate below.
cargo build --release -q -p wsg-bench

echo "== EXPERIMENTS.md drift gate (regen-experiments --check)"
cargo run --release -q -p wsg-bench --bin hdpat-sim -- regen-experiments --scale bench --check

echo "== PROTOCOL.md drift gate (regen-protocol --check)"
./target/release/hdpat-sim regen-protocol --check

echo "== serve lane: batch vs socket replay over the persistent cache (DESIGN.md §14)"
rm -rf target/ci/servecache target/ci/hdpat-ci.sock
./target/release/hdpat-sim emit-mix fig14 --scale unit --out target/ci/fig14_mix.ndjson
# Cold in-process replay: populates the content-addressed store and writes
# the reference digest.
./target/release/hdpat-sim replay target/ci/fig14_mix.ndjson \
    --cache-dir target/ci/servecache --jobs 4 \
    --out target/ci/replay_batch.txt --stats-out target/ci/replay_batch_stats.json
# Warm replay through a real daemon on the same store; --shutdown drains and
# stops it over the protocol.
./target/release/hdpat-sim serve --socket target/ci/hdpat-ci.sock --jobs 4 \
    --cache-dir target/ci/servecache 2> target/ci/serve.log &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2> /dev/null || true' EXIT
for _ in $(seq 1 100); do [ -S target/ci/hdpat-ci.sock ] && break; sleep 0.1; done
./target/release/hdpat-sim replay target/ci/fig14_mix.ndjson \
    --socket target/ci/hdpat-ci.sock --shutdown \
    --out target/ci/replay_socket.txt --stats-out target/ci/replay_socket_stats.json
wait "$SERVE_PID"
# The digest must not depend on transport or cache state...
cmp target/ci/replay_batch.txt target/ci/replay_socket.txt
# ...and the warm run must be answered entirely from the persistent store.
grep -q '"disk": 70' target/ci/replay_socket_stats.json
grep -q '"simulated": 0' target/ci/replay_socket_stats.json

echo "== cross-process run-cache reuse (figure fig14 from the daemon's store)"
./target/release/hdpat-sim figure fig14 --scale unit > target/ci/fig14_unit_ref.txt
./target/release/hdpat-sim figure fig14 --scale unit --cache-dir target/ci/servecache \
    > target/ci/fig14_unit_cached.txt 2> target/ci/fig14_unit_cached.log
cmp target/ci/fig14_unit_ref.txt target/ci/fig14_unit_cached.txt
grep -q '0 simulation(s) executed, 0 cache hit(s), 70 disk hit(s)' target/ci/fig14_unit_cached.log

echo "== ops lane: observability on, replay digest byte-identical (ops log + metrics)"
rm -f target/ci/hdpat-ops.sock target/ci/ops.jsonl target/ci/metrics.json
./target/release/hdpat-sim serve --socket target/ci/hdpat-ops.sock --jobs 4 \
    --cache-dir target/ci/servecache \
    --ops-log target/ci/ops.jsonl --metrics-out target/ci/metrics.json \
    2> target/ci/serve_ops.log &
SERVE_PID=$!
for _ in $(seq 1 100); do [ -S target/ci/hdpat-ops.sock ] && break; sleep 0.1; done
./target/release/hdpat-sim replay target/ci/fig14_mix.ndjson \
    --socket target/ci/hdpat-ops.sock --shutdown \
    --out target/ci/replay_ops.txt --stats-out target/ci/replay_ops_stats.json
wait "$SERVE_PID"
# Observability must not change a byte of the deterministic digest...
cmp target/ci/replay_batch.txt target/ci/replay_ops.txt
# ...the warm run still answers entirely from the persistent store...
grep -q '"disk": 70' target/ci/replay_ops_stats.json
# ...the final metrics snapshot is schema-tagged and reconciles: every
# submit accounted for, all of them attributed to the disk tier...
grep -q '"type":"metrics"' target/ci/metrics.json
grep -q '"schema":2' target/ci/metrics.json
grep -q '"submitted":70' target/ci/metrics.json
grep -q '"completed":70' target/ci/metrics.json
grep -q '"disk":{"count":70' target/ci/metrics.json
# ...and the ops log carries one enqueue/schedule/complete per request.
test "$(grep -c '"ev":"enqueue"' target/ci/ops.jsonl)" -eq 70
test "$(grep -c '"ev":"schedule"' target/ci/ops.jsonl)" -eq 70
test "$(grep -c '"ev":"complete"' target/ci/ops.jsonl)" -eq 70

echo "== metrics wire op (stdio daemon)"
printf '{"op":"metrics"}\n' | ./target/release/hdpat-sim serve --stdio --jobs 1 \
    --cache-dir target/ci/servecache 2> /dev/null > target/ci/metrics_op.json
grep -q '"type":"metrics"' target/ci/metrics_op.json

echo "== perf-trajectory gate (fig14 vs pre-PR-4 golden, -10% events/s floor)"
./target/release/hdpat-sim figure fig14 --scale bench --no-cache \
    --perf-out target/ci/BENCH_PR9_serial.json > target/ci/fig14.txt
cmp tests/golden/fig14_bench.txt target/ci/fig14.txt
grep -q '"schema": 3' target/ci/BENCH_PR9_serial.json
cat target/ci/BENCH_PR9_serial.json
# Regression gate: the fresh serial events/s must stay within 10% of the
# committed trajectory point (BENCH_PR9.json `serial` block). Machine noise
# on the bench sweep is ~±5%, so a 10% floor only trips on real regressions.
fresh="$(sed -n 's/.*"events_per_sec": \([0-9]*\).*/\1/p' target/ci/BENCH_PR9_serial.json)"
base="$(sed -n '/"serial"/,/}/s/.*"events_per_sec": \([0-9]*\).*/\1/p' BENCH_PR9.json)"
floor=$((base * 9 / 10))
echo "fig14 serial: ${fresh} events/s (committed ${base}, floor ${floor})"
test "$fresh" -ge "$floor"

echo "CI green."
