#!/usr/bin/env bash
# Local CI gate — everything runs offline against the vendored shims.
#
#   ./ci.sh          # fmt check, clippy, release build, smoke, full test suite
#   ./ci.sh quick    # skip the release build (fast pre-commit loop)
#
# Clippy runs with -D warnings on the crates the perf pass touches most;
# the message-plane crates additionally deny redundant clones and the
# perf lint group, so allocation regressions on the hot path fail CI.
set -euo pipefail
cd "$(dirname "$0")"

step() { printf '\n== %s ==\n' "$*"; }

step "cargo fmt --check"
cargo fmt --all -- --check

step "clippy (hot-path crates, -D warnings)"
cargo clippy -q \
    -p cx-types -p cx-sim -p cx-wal -p cx-mdstore \
    -p cx-protocol -p cx-cluster -p cx-bench -p cx-chaos -p cx-workloads \
    -p cx-obs -p cx-net \
    --all-targets -- -D warnings

step "clippy (message plane: deny redundant_clone + perf lints)"
cargo clippy -q -p cx-cluster -p cx-workloads -p cx-net --all-targets -- \
    -D warnings -D clippy::redundant_clone -D clippy::perf

# The parallel-kernel crates ship state across partition worker threads;
# deny the lints that catch non-Send smuggling (an Rc or a non-Send type
# wrapped in Arc compiles fine until the one call site that crosses a
# thread boundary appears).
step "clippy (partition-crossing crates: deny Rc/non-Send-in-Arc)"
cargo clippy -q -p cx-sim -p cx-cluster --all-targets -- \
    -D warnings -D clippy::rc_mutex -D clippy::arc_with_non_send_sync

if [ "${1:-}" != "quick" ]; then
    step "cargo build --release"
    cargo build --release --workspace

    # Fixed-seed golden-digest smoke: the pinned home2 scenario must
    # replay to the pinned digest through both workload intakes AND
    # through the partitioned entry point at --partitions 1; a
    # --partitions 2 run must preserve every tie-insensitive total
    # (asserted inside --smoke itself).
    step "perf_baseline --smoke (golden digest + --partitions 2 cross-check)"
    cargo run -q --release -p cx-bench --bin perf_baseline -- --smoke

    # Fixed-seed chaos smoke: both protocol envelopes must come out clean,
    # and the oracle must still catch the deliberately broken recovery.
    step "chaos smoke (fixed seeds)"
    cargo run -q --release -p cx-chaos -- --seeds 25 --out-dir target
    cargo run -q --release -p cx-chaos -- --demo-broken --seeds 5 --out-dir target

    # Observability smoke: a home2 replay with recording on must export a
    # parseable report whose per-phase accounting sums to the client
    # latency (cx-obs check), and must leave the replay digest untouched
    # (asserted inside --obs itself).
    step "obs smoke (home2 --obs, phase accounting)"
    cargo run -q --release -p cx-bench --bin perf_baseline -- \
        --obs --scale 0.005 --obs-out target/obs_home2 > /dev/null
    cargo run -q --release -p cx-obs -- check target/obs_home2.report.json

    # Doctor smoke (DESIGN.md §11): the blame engine must decompose the
    # home2 report with exact per-op segment sums (cx-obs doctor re-derives
    # every op's blame and fails loudly on a broken sum), and a deliberately
    # injected 5 ms participant stall must be convicted — prime suspect
    # "execute", largest hop shift on the slowed server (asserted inside
    # --doctor-demo itself, then re-checked through the CLI diff).
    step "doctor smoke (blame segment sums + slow-participant conviction)"
    cargo run -q --release -p cx-obs -- doctor target/obs_home2.report.json > /dev/null
    cargo run -q --release -p cx-chaos -- --doctor-demo --out-dir target
    cargo run -q --release -p cx-obs -- doctor target/doctor_slow.report.json \
        --against target/doctor_base.report.json | grep -q '^prime suspect: execute$'

    # Introspection-plane smoke: replay the repro the broken-recovery demo
    # just wrote, with lifecycle recording on and the always-on flight
    # recorder. The replay must reproduce, the obs report must pass the
    # phase-accounting check, and — since the repro carries failures — the
    # flight recorder must dump a non-empty post-mortem pair.
    step "chaos replay obs + flight-recorder post-mortem"
    repro=$(ls target/chaos-repro-cx-*.json | head -1)
    cargo run -q --release -p cx-chaos -- --replay "$repro" \
        --obs-out target/chaos_replay.trace.json --flight-out target/chaos_pm
    cargo run -q --release -p cx-obs -- check target/chaos_replay.trace.json.report.json
    test -s target/chaos_pm.flight.jsonl
    test -s target/chaos_pm.flight.trace.json

    # Wire-plane smoke (DESIGN.md §9): a home2 prefix on the real-socket
    # runtime must stay clean, match the DES on the placement-fixed
    # totals (ops_total, cross_ops), and survive the drop-every-connection
    # reconnect drill losslessly (asserted inside --net-smoke itself).
    step "net smoke (loopback TCP + reconnect drill)"
    cargo run -q --release -p cx-bench --bin perf_baseline -- --net-smoke

    # Multi-process smoke: one OS process per server (cx_net_server), the
    # coordinator connecting out over real TCP, with the live registry
    # publishing cross-process — the .prom file must exist and carry the
    # ops counter (its value is asserted against RunStats in-binary) —
    # and wall-clock tracing on: every process stamps phases on its own
    # clock, shards ship back in StopResp, and the coordinator stitches
    # them with probe-measured offsets (≥99% span completeness asserted
    # in-binary). The stitched report must pass cx-obs check, the net
    # table must render, and cx-obs top must merge the coordinator's
    # snapshot with the per-server ones.
    step "net multi-process smoke (cx_net_server x4 + live metrics + stitched trace)"
    cargo run -q --release -p cx-bench --bin perf_baseline -- \
        --multiproc --scale 0.0005 --metrics-out target/cx_net_metrics \
        --obs-out target/cx_net_obs
    grep -q '^cx_ops_issued_total ' target/cx_net_metrics.prom
    cargo run -q --release -p cx-obs -- check target/cx_net_obs.report.json
    cargo run -q --release -p cx-obs -- net target/cx_net_obs.net.json > /dev/null
    cargo run -q --release -p cx-obs -- top target/cx_net_metrics.json \
        target/cx_net_metrics_srv*.json > /dev/null

    # Live-exposition smoke: a loopback TCP home2 run must leave fresh
    # .prom / .json snapshots behind (the cx-obs top input), and the
    # registry's ops counter must match RunStats (asserted inside --live
    # itself).
    step "live metrics (--live, TCP runtime)"
    cargo run -q --release -p cx-bench --bin perf_baseline -- \
        --live --scale 0.005 --metrics-out target/cx_metrics > /dev/null
    grep -q '^cx_ops_issued_total ' target/cx_metrics.prom
    cargo run -q --release -p cx-obs -- top target/cx_metrics.json > /dev/null

    # The observability PR's throughput gate: uninstrumented home2 replay
    # must hold the BENCH_PR3.json rate (the enum sink compiles to a no-op
    # when Off). The floor is 0.70 rather than 1.0 because the recorded
    # baseline came from an idle machine: interleaved old/new binaries on
    # a loaded single-core box measure within a few percent of each other
    # while absolute rates swing ±20%; an accidental always-on recorder
    # costs far more than 30%.
    #
    # Every gate writes its report under target/bench/ so CI never
    # rewrites the committed BENCH_PR*.json history; the first gate reads
    # the committed BENCH_PR3.json, each later one the report the
    # previous step just wrote.
    step "BENCH_PR4.json (no throughput regression vs BENCH_PR3.json)"
    mkdir -p target/bench
    cargo run -q --release -p cx-bench --bin perf_baseline -- \
        --label pr4 --iters 5 --filter home2_replay_8s \
        --out target/bench/BENCH_PR4.json --against BENCH_PR3.json --tolerance 0.70

    # The introspection-plane gate: the metric registry, flight-recorder
    # hooks, and message-edge branches all sit behind cheap None/Off
    # checks on the DES hot path, so the uninstrumented replay rate must
    # hold the PR4 baseline (same 0.70 floor, same rationale as above).
    step "BENCH_PR5.json (no throughput regression vs BENCH_PR4.json)"
    cargo run -q --release -p cx-bench --bin perf_baseline -- \
        --label pr5 --iters 5 --filter home2_replay_8s \
        --out target/bench/BENCH_PR5.json --against target/bench/BENCH_PR4.json --tolerance 0.70

    # The parallel-kernel gate: the single-threaded replay rate must hold
    # the PR5 baseline (the partitioned path is opt-in; --partitions 1
    # stays bit-identical, so the only way this regresses is hot-path
    # overhead leaking into the sequential kernel). The same invocation
    # also measures home2 under --partitions 2, so the p2/p1 ratio — and
    # the hardware-thread count it was measured on — lands in
    # BENCH_PR6.json alongside the gate.
    step "BENCH_PR6.json (no regression vs BENCH_PR5.json; --partitions 2)"
    cargo run -q --release -p cx-bench --bin perf_baseline -- \
        --label pr6 --iters 5 --filter home2_replay_8s --partitions 2 \
        --out target/bench/BENCH_PR6.json --against target/bench/BENCH_PR5.json --tolerance 0.70

    # The wire-plane gate: the DES replay rate must hold the PR6 baseline
    # (cx-net is a separate runtime; the only way it regresses the DES is
    # hot-path overhead leaking into shared crates). The same invocation
    # records the loopback + multi-process TCP entries — single-box
    # wall-clock numbers, see the caveat printed with them.
    step "BENCH_PR7.json (no regression vs BENCH_PR6.json; --net tcp)"
    cargo run -q --release -p cx-bench --bin perf_baseline -- \
        --label pr7 --iters 5 --filter home2 --net tcp \
        --out target/bench/BENCH_PR7.json --against target/bench/BENCH_PR6.json --tolerance 0.70

    # The wire-throughput gate: scoped corking, client shepherds, and the
    # single-shepherd direct inbound path must hold their speedup. The
    # pinned floor is ~2/3 of the recorded BENCH_PR8.json loopback rate
    # (45k ops/s on the 1-hardware-thread reference box, 2.6x the PR7
    # wire plane) so machine noise doesn't flake the gate while a return
    # to the pre-coalescing ~17k ops/s rate fails it loudly. The same
    # invocation re-checks the DES replay rate against the PR7 baseline.
    step "BENCH_PR8.json (pinned wire floor + no regression vs BENCH_PR7.json)"
    cargo run -q --release -p cx-bench --bin perf_baseline -- \
        --label pr8 --iters 5 --filter home2 --net tcp \
        --out target/bench/BENCH_PR8.json --against target/bench/BENCH_PR7.json --tolerance 0.70 \
        --net-floor 30000

    # The telemetry-overhead gate: the loopback TCP entry re-runs with the
    # full wall-clock tracing plane on (recording sink on every engine +
    # flush-span capture in the wire queues) and must hold 95% of the same
    # 30k ops/s floor — the tracing plane has to be cheap enough to leave
    # on in production. The uninstrumented entry still holds the full
    # floor, and the DES rate still holds the PR8 baseline.
    step "BENCH_PR9.json (span-on within 5% of the wire floor)"
    cargo run -q --release -p cx-bench --bin perf_baseline -- \
        --label pr9 --iters 5 --filter home2 --net tcp \
        --out target/bench/BENCH_PR9.json --against target/bench/BENCH_PR8.json --tolerance 0.70 \
        --net-floor 30000

    # The blame-plane gate: doctor attribution is pure post-processing over
    # artifacts the PR9 plane already records — the DES hot path gains only
    # a fault-match arm that is dead on uninstrumented runs — so the DES
    # replay rate must hold the PR9 baseline (1.00x expected; the 0.70
    # floor absorbs machine noise, same rationale as PR4) and the span-on
    # loopback entry must stay within 95% of the same 30k ops/s wire floor.
    step "BENCH_PR10.json (blame plane is post-processing; rates hold PR9)"
    cargo run -q --release -p cx-bench --bin perf_baseline -- \
        --label pr10 --iters 5 --filter home2 --net tcp \
        --out target/bench/BENCH_PR10.json --against target/bench/BENCH_PR9.json --tolerance 0.70 \
        --net-floor 30000

    # The wall-clock runtime under load: the TCP unit tests and the
    # TCP-vs-DES equivalence suite squeezed onto one core, so a
    # scheduling-dependent flake fails here instead of hiding behind a
    # retry.
    step "cx-cluster tests pinned to one core (taskset -c 0)"
    taskset -c 0 cargo test -q --release -p cx-cluster
fi

step "cargo test (workspace)"
cargo test --workspace -q

step "ci.sh OK"
