#!/usr/bin/env sh
# The full local gate, identical to .github/workflows/ci.yml.
# Runs entirely offline: the workspace has no external dependencies
# (the proptest property tests are feature-gated off; see Cargo.toml).
set -eux

cargo fmt --all -- --check
cargo clippy --workspace --all-targets -- -D warnings
cargo build --release --workspace
cargo test -q --workspace
# The workspace must keep building under the bench profile (it has
# no bench targets; host-time measurement lives in perfbench/) and
# the perf harness must run end to end; one rep at a small scale keeps
# this a smoke test, not a measurement.
cargo bench --workspace --no-run
# The same-host benchmark is its own package outside the workspace:
# build it and run its self-test so an API change here cannot break it
# unnoticed.
cargo test --release --offline --manifest-path perfbench/Cargo.toml
cargo run --release -p hera-bench --bin figures -- perf --reps 1 --scale 0.1
# Perf regression gate: the full-scale grid must reproduce the virtual
# metrics (wall_cycles, guest_ops) committed in BENCH_interp.json
# exactly; host wall-clock drift is advisory only, so this cannot flake.
cargo run --release -p hera-bench --bin figures -- perf-gate --reps 1
# Parallel engine golden-grid smoke: the determinism suite re-runs the
# workload grid at workers 1/2/4/8 (plus chaos, checkpoint, and crash
# cells) asserting byte-identical traces, stats, profiles, and snapshot
# bytes. Already covered by `cargo test` above; run it by name so a
# parallel-engine regression fails loudly under its own banner.
cargo test --release -p hera-integration --test par
# Parallel perf gate: the workers=4 grid must reproduce the virtual
# metrics of BOTH committed snapshots exactly (worker-count independence
# of virtual time). The >=2x mandelbrot/spe6 host speedup is enforced
# when the host has >=4 CPUs and reported as skipped otherwise, so a
# single-core container cannot flake it.
cargo run --release -p hera-bench --bin figures -- perf-gate --reps 1 --workers 4
# Profiler smoke: per-method attribution must reconcile with RunStats
# (the command prints and checks the invariant) and write the folded
# flamegraph output.
cargo run --release -p hera-bench --bin figures -- profile mandelbrot --scale 0.25
# Chaos smoke: fixed seed, one workload, SPE-death schedule; the run
# must recover (the harness asserts the checksum), replay byte-identically
# under the same seed, and print the report — exit 1 on any divergence.
cargo run --release -p hera-bench --bin figures -- chaos mandelbrot --scale 0.25
# Snapshot round-trip smoke: crash the whole machine mid-run, restore
# from the latest on-disk checkpoint, finish the workload, and verify
# the recovered run is bit-identical to the uninterrupted one (the
# format-version golden in tests/snap.rs separately pins the on-disk
# encoding against silent drift).
cargo run --release -p hera-bench --bin figures -- chaos-crash mandelbrot --scale 0.25
# Cluster smoke: a small fleet (4 machines) with one mid-trace machine
# crash and one live migration; every recovery and migration must prove
# bit-identical to the unmigrated run and the whole report must replay
# byte-identically under the same seed — exit 1 on any divergence.
cargo run --release -p hera-bench --bin figures -- cluster --requests 300
# Resilience smoke: the full chaos matrix (straggler + crash storm,
# every knob combination) must replay byte-identically and hold full
# resilience's p99 within 2x of the fault-free baseline at >=90%
# goodput — exit 1 otherwise.
cargo run --release -p hera-bench --bin figures -- cluster-chaos
# Observability smoke: the E13 matrix with hera-scope on must reconcile
# its span ledger exactly against the policy counters, replay the
# report + Chrome trace + SLO table byte-identically, and write
# fleet_trace.json / fleet_slo.txt — exit 1 on any divergence.
cargo run --release -p hera-bench --bin figures -- fleet-trace
# Proactive-degradation smoke: the E15 matrix (heterogeneous 2/4/6-SPE
# fleet, breaker/slowdown drains, seeded rebalancer) must replay
# byte-identically, prove every cross-shape adoption by replay
# determinism, reconcile the drain ledger, and hold proactive p99 <=
# reactive p99 at >= reactive goodput — exit 1 otherwise.
cargo run --release -p hera-bench --bin figures -- cluster-rebal
