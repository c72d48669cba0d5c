#!/usr/bin/env bash
# Repository CI gate: formatting, lints, and the tier-1 test suite.
# Usage: ./ci.sh
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (workspace, warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo clippy pedantic gate (tpi-dfa opts in via crate attributes) =="
# crates/dfa carries #![warn(clippy::pedantic)] with a two-lint
# allowlist; this explicit pass keeps the gate visible even if the
# workspace invocation above ever changes shape.
cargo clippy -p tpi-dfa --all-targets -- -D warnings

echo "== tier-1 tests (root package) =="
cargo test -q

echo "== workspace tests (every crate's unit, integration and doc tests) =="
# `cargo test -q` above covers the root package only; this runs the
# netlist, builder, serve, net and every other crate's own tests.
cargo test -q --workspace

echo "== cargo doc (no deps, warnings are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "== tpi-batch smoke (cold run, then byte-identical warm run) =="
SMOKE="$(mktemp -d)"
trap 'rm -rf "$SMOKE"' EXIT
cargo build -q -p tpi-bench --bin tpi-batch
BATCH=target/debug/tpi-batch
"$BATCH" --generate "$SMOKE/work" --small >/dev/null
"$BATCH" --cache-dir "$SMOKE/cache" --out "$SMOKE/cold" "$SMOKE/work"
"$BATCH" --cache-dir "$SMOKE/cache" --out "$SMOKE/warm" "$SMOKE/work"
diff -r "$SMOKE/cold" "$SMOKE/warm"

echo "== tpi-netd/tpi-cli loopback smoke (report identical to in-process run) =="
cargo build -q -p tpi-net --bin tpi-netd --bin tpi-cli
NETD=target/debug/tpi-netd
NETCLI=target/debug/tpi-cli
"$NETD" --addr-file "$SMOKE/netd.addr" >"$SMOKE/netd.log" 2>&1 &
NETD_PID=$!
for _ in $(seq 1 50); do [ -s "$SMOKE/netd.addr" ] && break; sleep 0.1; done
ADDR="$(cat "$SMOKE/netd.addr")"
"$NETCLI" --addr "$ADDR" --ping
"$NETCLI" --addr "$ADDR" "$SMOKE/work/s27.blif" > "$SMOKE/over-wire.json"
# The same job in-process (cold cache): payloads must be byte-identical
# ($(...) strips tpi-cli's trailing newline; --out files carry none).
printf '%s' "$(cat "$SMOKE/over-wire.json")" > "$SMOKE/over-wire.trimmed"
cmp "$SMOKE/over-wire.trimmed" "$SMOKE/cold/s27.full-scan.json"
"$NETCLI" --addr "$ADDR" --metrics | grep -q '"schema":"tpi-netd-metrics/v1"'
"$NETCLI" --addr "$ADDR" --shutdown
wait "$NETD_PID"
grep -q "drained and stopped" "$SMOKE/netd.log"
# Network batch mode: 4 clients against a capped in-process server,
# byte-identical to the cold in-process payloads. The default drive is
# sequential sessions; --pipeline covers the many-in-flight path, and
# both must agree byte for byte (each run keeps the in-flight cap low
# enough to exercise its Busy/backpressure path).
"$BATCH" --jobs 4 --out "$SMOKE/net" "$SMOKE/work"
diff -r "$SMOKE/net" "$SMOKE/cold"
"$BATCH" --jobs 4 --pipeline --out "$SMOKE/net-pipe" "$SMOKE/work"
diff -r "$SMOKE/net-pipe" "$SMOKE/net"

echo "== tpi-gateway smoke (3 backends: cold, warm, kill-one — all byte-identical) =="
# Cold run through a 3-backend gateway must match the direct run byte
# for byte, and the warm rerun must ride each owner's cache.
"$BATCH" --gateway 3 --cache-dir "$SMOKE/gwcache" --out "$SMOKE/gw-cold" "$SMOKE/work" \
    > "$SMOKE/gw-cold.log"
diff -r "$SMOKE/gw-cold" "$SMOKE/cold"
"$BATCH" --gateway 3 --cache-dir "$SMOKE/gwcache" --out "$SMOKE/gw-warm" "$SMOKE/work" \
    > "$SMOKE/gw-warm.log"
diff -r "$SMOKE/gw-warm" "$SMOKE/cold"
grep -q '"schema":"tpi-gateway-metrics/v1"' "$SMOKE/gw-warm.log"
# Warm affinity: the rerun is all cache hits, none cold.
grep -Eq 'done in [0-9.]+s: 6 completed \(0 cold' "$SMOKE/gw-warm.log"
# Kill a backend mid-batch: the failover path must still produce the
# exact same report set.
"$BATCH" --gateway 3 --kill-one --cache-dir "$SMOKE/gwkill" --out "$SMOKE/gw-kill" \
    "$SMOKE/work" > "$SMOKE/gw-kill.log"
diff -r "$SMOKE/gw-kill" "$SMOKE/cold"

echo "== tpi-lint over generated workloads (deny errors; JSON byte-stable) =="
cargo build -q -p tpi-lint --bin tpi-lint
LINT=target/debug/tpi-lint
"$BATCH" --generate "$SMOKE/suite" >/dev/null
# Text mode: warnings are fine (synthetic circuits keep dead cones on
# purpose), error-severity findings fail CI.
"$LINT" "$SMOKE/suite" "$SMOKE/work"
# JSON mode twice over the same inputs must be byte-identical.
"$LINT" --format json "$SMOKE/suite" "$SMOKE/work" > "$SMOKE/lint1.json"
"$LINT" --format json "$SMOKE/suite" "$SMOKE/work" > "$SMOKE/lint2.json"
cmp "$SMOKE/lint1.json" "$SMOKE/lint2.json"
# --analysis adds the TPI200-series findings plus one tpi-dfa/v1 line
# per parseable input; the whole stream must stay byte-stable too.
"$LINT" --analysis --format json "$SMOKE/suite" "$SMOKE/work" > "$SMOKE/lint-dfa1.json"
"$LINT" --analysis --format json "$SMOKE/suite" "$SMOKE/work" > "$SMOKE/lint-dfa2.json"
cmp "$SMOKE/lint-dfa1.json" "$SMOKE/lint-dfa2.json"
grep -q '"schema":"tpi-dfa/v1"' "$SMOKE/lint-dfa1.json"

echo "== tpi-bench metrics gate (deterministic section byte-stable across threads) =="
cargo build -q --release -p tpi-bench --bin tpi-bench
BENCH=target/release/tpi-bench
"$BENCH" --threads 1 --det-out "$SMOKE/det1.txt" >/dev/null
"$BENCH" --threads 0 --det-out "$SMOKE/det0.txt" >/dev/null
cmp "$SMOKE/det1.txt" "$SMOKE/det0.txt"

echo "== tpi-bench --gain-model scoap (byte-identical across threads 1/2/0 and gain-update modes) =="
"$BENCH" --gain-model scoap

echo "== tpi-bench sweep (deterministic sections byte-identical across threads 1/2/0) =="
"$BENCH"

echo "== lane-engine equivalence (release, includes the 10k-gate circuit) =="
cargo test -q --release -p tpi-core --test lane_equiv -- --include-ignored

echo "== TPGREED live pin index oracle (release, includes the large circuits) =="
# After every commit, each net's live pins must equal the path store's
# pins of alive, non-established, pair-usable paths, in store order, in
# both gain-update modes at threads 1 and 2.
cargo test -q --release -p tpi-core --lib tpgreed -- --include-ignored

echo "== BLIF parser equivalence (release, includes the 100k-gate design) =="
cargo test -q --release --test blif_parser -- --include-ignored

echo "== full-scan identity (release, includes the large circuits) =="
# The full-scan flow's transformed BLIF, Table I row, every claims field
# and deterministic metrics on every suite and smoke circuit and on the
# 25k and 100k industrial designs must keep their pinned digests.
cargo test -q --release --test full_scan_identity -- --include-ignored

echo "== adjacency-order identity (release, includes the 100k-gate design) =="
# Every gate's fanin and fanout list, in order, after seeded netlist
# edits that leave survivors on wide nets and after the full-scan flow
# on the 25k and 100k industrial designs, must keep its pinned digest.
cargo test -q --release --test adjacency_identity -- --include-ignored

echo "== fingerprint identity (release, includes the 100k-gate design) =="
# The structural fingerprint behind every cache key, over the BLIF round
# trip of every suite and smoke circuit and the 25k and 100k industrial
# designs, must keep its pinned value.
cargo test -q --release --test fingerprint_identity -- --include-ignored

echo "== partial-scan identity (release, includes the large circuits) =="
# CB, TD-CB and TPTIME outputs on every suite and smoke circuit must keep
# their pinned digests.
cargo test -q --release --test partial_scan_identity -- --include-ignored

echo "== partial-scan work counters (release, includes the large circuits) =="
# TD-CB and TPTIME rounds, candidates and selected flip-flops per circuit
# must keep their pinned values.
cargo test -q --release --test partial_scan_counters -- --include-ignored

echo "== TPTIME planner oracles (release, includes the large circuits) =="
# The incremental test-mode constants, the overlay plan check and the
# Eq. 2-4 table against a from-scratch implication, a netlist clone and
# the clone-merging recursion, step by step.
cargo test -q --release -p tpi-core --lib tptime -- --include-ignored

echo "== region oracle (release, includes the large circuits) =="
# The cone-local Region::build against the topologically sorted one,
# on original and TPTIME-transformed netlists.
cargo test -q --release --test region_oracle -- --include-ignored

echo "== s-graph and cycle-breaking oracles (release, includes the large circuits) =="
# The level-ordered 64-wide s-graph build against a per-flip-flop BFS,
# and the flat cycle-breaking reduction against the BTreeSet one.
cargo test -q --release -p tpi-scan -- --include-ignored

echo "== SCOAP wave oracle (release, includes the 100k-gate design) =="
# The wave-scheduled forward fixpoint against whole topo sweeps: equal
# cc0/cc1/co and pass counts, and under four evaluations per gate.
cargo test -q --release -p tpi-dfa -- --include-ignored

echo "== tpi-bench --large: gen50k lane-engine gates =="
# Fails if selections/deterministic sections differ across --threads
# 1/2/0, if the pinned work counters (paths, rounds, candidates, test
# points) move, or if tpgreed at --threads 0 is >15% slower than
# --threads 1 (the TPGREED parallel-slowdown regression); on a 1-thread
# host that timing gate prints "skipped (nproc=1)".
"$BENCH" --large

echo "== tpi-bench --gen-scale: industrial generator linearity gate =="
# Fails if the 500k-gate design costs >4x the ns/gate of the 125k one
# (superlinear generation) or any design misses its gate target by >20%.
"$BENCH" --gen-scale

echo "== tpi-soak --smoke: soak/fuzz gate (direct + 2-backend gateway) =="
# ~25 seconds of mixed-lane traffic per cluster shape: cold submits,
# warm repeats (byte-compared), pipelined batches, fuzzed frames,
# 1 ms deadlines, mid-job disconnects. Fails on any panic, unverified
# report, warm mismatch, dead server after a mutant, or RSS above cap.
cargo build -q --release -p tpi-soak --bin tpi-soak
target/release/tpi-soak --smoke

echo "CI green."
