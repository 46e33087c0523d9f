#!/usr/bin/env bash
# The CI entry point: every job in .github/workflows/ci.yml is one call
# of this script, so a job runs the same way on a laptop.
#
#   scripts/ci.sh default    docs links, build, tier-1 tests, daemon and
#                            bad-argv checks, shim/consumer/trace smokes,
#                            bench smokes with their JSON asserts
#   scripts/ci.sh simd-off   scalar-kernel build (-DBPERF_SIMD=OFF),
#                            tests, scalar-dispatch assert
#   scripts/ci.sh asan       ASan+UBSan build, tests, SIGKILL chaos smoke
#   scripts/ci.sh tsan       TSan build of the race-sensitive suites,
#                            the suites, SIGKILL chaos smoke
#
# Run from the repository root.  Build trees go to build/,
# build-scalar/, build-asan/ and build-tsan/; bench JSON, the sample
# trace and smoke logs land in the working directory.
set -euo pipefail

jobs=$(nproc)

configure_and_build() { # <dir> [cmake args...]
    local dir=$1
    shift
    cmake -B "$dir" -S . "$@"
    cmake --build "$dir" -j "$jobs"
}

run_tests() { # <dir>
    ctest --test-dir "$1" --output-on-failure -j "$jobs"
}

# ------------------------------------------------------------ default

daemon_smokes() {
    BP_QUICK=1 ./build/bench_service_throughput
    ./build/perf_daemon capi 4
    ./build/perf_daemon pcie 2
    ./build/perf_daemon host
    ./build/perf_daemon capi 2 --max-sessions=2 --max-queue-us=500
}

# Every line is one invocation (binary in build/, then its arguments)
# that must exit non-zero.
bad_argv_cases() {
    cat <<'EOF'
perf_daemon bogus
perf_daemon capi 0
perf_daemon capi notanumber
perf_daemon capi -2
perf_daemon host 4
perf_daemon capi 2 --nonsense=1
perf_daemon capi 2 --max-sessions=0
perf_daemon capi 2 --max-sessions=-1
perf_daemon capi 2 --records-per-sec=abc
perf_daemon capi 2 --records-per-sec=-5
perf_daemon capi 2 --shm=
perf_daemon capi 2 --shm=foo/bar
perf_daemon capi 2 --shm=no-leading-slash
perf_daemon capi 2 --linger-ms=abc
perf_daemon capi 2 --trace-out=
perf_daemon capi 2 --metrics-every-ms=0
perf_daemon capi 2 --metrics-every-ms=abc
perf_daemon capi 2 --tenants=0
perf_daemon capi 2 --tenants=abc
shim_reader
shim_reader /nonexistent --attach-timeout-ms=100
pcie_scheduler --bogus
pcie_scheduler extra-positional
pcie_scheduler --iters=0
pcie_scheduler --iters=abc
pcie_scheduler --episodes=0
pcie_scheduler --episodes=-3
pcie_scheduler --seed=abc
pcie_scheduler --shm=
pcie_scheduler --shm=no-leading-slash
pcie_scheduler --shm=/nested/name
pcie_scheduler --shm=/nonexistent --attach-timeout-ms=100
EOF
}

bad_argv_rejected() {
    local count=0 line
    local -a argv
    while IFS= read -r line; do
        read -r -a argv <<<"$line"
        if "./build/${argv[0]}" "${argv[@]:1}"; then
            echo "expected failure exit: $line" >&2
            exit 1
        fi
        count=$((count + 1))
    done < <(bad_argv_cases)
    echo "bad argv: $count invocations rejected"
}

shim_smoke() {
    ./build/perf_daemon capi 2 --shm=/bperf-ci-smoke --linger-ms=4000 \
        --metrics-every-ms=500 &
    local daemon_pid=$!
    # 5s budget: attach while the daemon streams/lingers and require
    # at least one consistent cross-process snapshot.  With
    # --metrics-every-ms the daemon also exports its own health
    # metrics as pseudo-session 0; require a read of it.
    ./build/shim_reader /bperf-ci-smoke --attach-timeout-ms=5000 \
        --duration-ms=5000 --interval-ms=200 --min-reads=1 |
        tee shim_smoke.log
    wait "$daemon_pid"
    grep -q '^session 0 ' shim_smoke.log
}

consumer_loop_smoke() {
    ./build/perf_daemon capi 2 --shm=/bperf-ci-mlsched \
        --linger-ms=30000 --metrics-every-ms=500 &
    local daemon_pid=$!
    # The scheduler attaches a ShimCounterFeed to the daemon's segment
    # and must serve at least one live posterior-derived observation
    # (it exits 1 otherwise).
    ./build/pcie_scheduler --shm=/bperf-ci-mlsched --iters=400 \
        --episodes=150 --seed=7 --attach-timeout-ms=10000 |
        tee mlsched_smoke.log
    grep -q 'feed stats: ' mlsched_smoke.log
    kill "$daemon_pid" 2>/dev/null || true
    wait "$daemon_pid" 2>/dev/null || true
    rm -f /dev/shm/bperf-ci-mlsched
}

trace_smoke() {
    ./build/perf_daemon capi 2 --tenants=8 \
        --trace-out=trace_8tenant.json --metrics-every-ms=50
    python3 - <<'EOF'
import json
doc = json.load(open('trace_8tenant.json'))
assert doc['displayTimeUnit'] == 'ms'
events = doc['traceEvents']
assert len(events) > 0, 'empty trace'
names = {e['name'] for e in events}
# The span phases the pipeline must expose, by substring.
for phase in ('ingest', 'queue', 'compute', 'publish'):
    assert any(phase in n for n in names), phase
# One trace "thread" per tenant session.
assert len({e['tid'] for e in events}) == 8
for e in events:
    for key in ('name', 'cat', 'ph', 'ts', 'dur', 'pid',
                'tid', 'args'):
        assert key in e, key
    assert e['ph'] == 'X' and e['dur'] >= 0
print(f"{len(events)} events, {len(names)} phases: OK")
EOF
}

bench_smokes() {
    # Per-window EP latency.
    BP_QUICK=1 ./build/bench_ep_window
    python3 - <<'EOF'
import json
doc = json.load(open('BENCH_ep_window.json'))
for key in ('quad_kernel', 'flush_kernel', 'block_size',
            'us_per_window_fast', 'us_per_window_scalar',
            'speedup_fast_vs_dense', 'speedup_simd_vs_scalar',
            'buffer_growths'):
    assert key in doc, key
# The SIMD quadrature kernel must actually beat the scalar one
# end-to-end (on runners without AVX2 the dispatcher falls back to
# scalar and the ratio sits at ~1, so only require it not be a
# slowdown).
assert doc['speedup_simd_vs_scalar'] > 0.9, doc
if doc['quad_kernel'] != 'scalar':
    assert doc['speedup_simd_vs_scalar'] > 1.5, doc
print(f"quad_kernel={doc['quad_kernel']} "
      f"simd_vs_scalar={doc['speedup_simd_vs_scalar']:.2f}: OK")
EOF

    # Accelerator-in-the-loop service; admission control under
    # overload.
    BP_QUICK=1 ./build/bench_accel_service
    BP_QUICK=1 ./build/bench_admission

    # Snapshot shim read path.
    BP_QUICK=1 ./build/bench_shim_read
    python3 - <<'EOF'
import json
doc = json.load(open('BENCH_shim.json'))
cs = doc['checksum']
for key in ('uncontendedNoVerify', 'hammeredNoVerify',
            'verifyOverheadPctP50', 'verifyOverheadPctP99',
            'corruptReads'):
    assert key in cs, key
# Nothing in the bench corrupts memory, so a single Corrupt verdict
# means the checksum protocol itself is broken.
assert cs['corruptReads'] == 0, cs
print(f"verify tax p50 {cs['verifyOverheadPctP50']:.1f}% "
      f"p99 {cs['verifyOverheadPctP99']:.1f}%, corrupt 0: OK")
EOF

    # Telemetry overhead.
    BP_QUICK=1 ./build/bench_telemetry_overhead

    # Section 6.3 decision quality.
    BP_QUICK=1 ./build/bench_sec63_decision_quality
    python3 - <<'EOF'
import math, json
doc = json.load(open('BENCH_decision_quality.json'))
for key in ('noise', 'improvement_vs_static_pct',
            'corrected_vs_raw_pct', 'corrected_beats_raw', 'paper'):
    assert key in doc, key
for policy in ('cf', 'rl'):
    gain = doc['corrected_vs_raw_pct'][policy]
    for field in ('mean_pct', 'stddev_pct', 'ci95_pct'):
        assert math.isfinite(gain[field]), (policy, field)
    # The paper's core claim: schedulers decide better on
    # posterior-corrected counters than on raw multiplexed ones.
    assert doc['corrected_beats_raw'][policy], (policy, gain)
    print(f"{policy}: corrected vs raw "
          f"+{gain['mean_pct']:.2f}% "
          f"(±{gain['ci95_pct']:.2f}): OK")
EOF

    # Fig 9 PCIe contention.
    ./build/bench_fig9_pcie_contention
    python3 - <<'EOF'
import json
doc = json.load(open('BENCH_fig9_pcie_contention.json'))
assert doc['points'], 'no sweep points'
c = doc['contention']
assert c['max_slowdown_x'] >= 1.0, c
print(f"{len(doc['points'])} points, "
      f"max slowdown {c['max_slowdown_x']:.2f}x: OK")
EOF
}

# ------------------------------------------------------- sanitizers

# SIGKILL the daemon under a live shim_reader.  The reader must notice
# the dead writer via the stalled heartbeat, report typed degradation
# counts, and exit 0 (it got its consistent reads before the kill) —
# no crash, no hang until the 60 s duration.
chaos_smoke() { # <build dir> <tag>
    local dir=$1 tag=$2
    "./$dir/perf_daemon" capi 2 --shm="/bperf-chaos-$tag" \
        --linger-ms=60000 --metrics-every-ms=200 &
    local daemon_pid=$!
    "./$dir/shim_reader" "/bperf-chaos-$tag" \
        --attach-timeout-ms=15000 --duration-ms=60000 \
        --interval-ms=100 --min-reads=1 \
        --max-writer-idle-ms=1000 | tee "chaos_$tag.log" &
    local reader_pid=$!
    sleep 5
    kill -9 "$daemon_pid"
    wait "$reader_pid"
    grep -q 'writer silent' "chaos_$tag.log"
    grep -q 'writer-dead=' "chaos_$tag.log"
    rm -f "/dev/shm/bperf-chaos-$tag"
}

# The service's concurrent paths (SPSC ring, registry shards,
# worker-pool scheduling, subscription dispatch, admission
# bookkeeping, seqlock snapshot publishing).  The fork-based
# cross-process cases in test_shim, test_shim_chaos and
# test_counter_feed self-skip under TSan; the in-process seqlock races
# and fault-injection cases run fully.
tsan_suites=(test_service test_ring_buffer test_accel_backend
             test_subscription test_admission test_shim test_shim_chaos
             test_counter_feed test_telemetry)

# ------------------------------------------------------------- jobs

case "${1:-}" in
default)
    ./scripts/check_docs_links.sh
    configure_and_build build
    run_tests build
    daemon_smokes
    bad_argv_rejected
    shim_smoke
    consumer_loop_smoke
    trace_smoke
    bench_smokes
    ;;
simd-off)
    # The scalar quadrature fallback must stand on its own — in
    # particular test_ep_golden's recorded-posterior fixtures, which
    # the scalar path must reproduce bit for bit.
    configure_and_build build-scalar -DBPERF_SIMD=OFF
    run_tests build-scalar
    BP_QUICK=1 ./build-scalar/bench_ep_window
    python3 - <<'EOF'
import json
doc = json.load(open('BENCH_ep_window.json'))
assert doc['quad_kernel'] == 'scalar', doc['quad_kernel']
assert doc['flush_kernel'] == 'scalar', doc['flush_kernel']
print('scalar dispatch: OK')
EOF
    ;;
asan)
    # The whole suite (notably the EP fast path: blocked rank-1 joint
    # updates over reused EpWorkspace buffers) under Address- and
    # UndefinedBehaviorSanitizer.
    configure_and_build build-asan -DBPERF_SANITIZE_ADDRESS=ON
    run_tests build-asan
    chaos_smoke build-asan asan
    ;;
tsan)
    cmake -B build-tsan -S . -DBPERF_SANITIZE_THREAD=ON
    cmake --build build-tsan -j "$jobs" \
        --target "${tsan_suites[@]}" perf_daemon shim_reader
    for suite in "${tsan_suites[@]}"; do
        "./build-tsan/$suite"
    done
    chaos_smoke build-tsan tsan
    ;;
*)
    echo "usage: $0 <default|simd-off|asan|tsan>" >&2
    exit 2
    ;;
esac
