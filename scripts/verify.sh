#!/usr/bin/env bash
# Full verification gate: tier-1 tests, the exhaustive crash-point sweep
# at the pinned seed, and the standalone no-faults bench build that
# proves the injection hooks compile to no-ops outside the `faults`
# feature. Run from anywhere inside the repo.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: cargo build --release && cargo test -q =="
cargo build --release
cargo test -q

echo
echo "== lint gate: cargo clippy --workspace -- -D warnings =="
cargo clippy --workspace -- -D warnings

echo
echo "== lint gate: cargo xtask lint =="
# Project-specific static pass (DESIGN.md §13, §14): raw-device-access,
# no-std-sync, safety-comment, flush-fence, no-panic. Must be clean on
# the workspace and must still flag every rule on its fixture crate.
cargo xtask lint
if cargo xtask lint crates/xtask/fixtures/lint-fixture > /dev/null 2>&1; then
    echo "FAIL: xtask lint did not flag the rule-violating fixture." >&2
    exit 1
fi
echo "OK: fixture crate still trips the lint."

echo
echo "== typestate gate: raw-publish lint + compile-fail fixture =="
# Compiler-checked persistence ordering (DESIGN.md §18): the raw-publish
# rule (part of `cargo xtask lint` above) keeps shipped library code on
# the typed Dirty -> Flushed -> Durable pipeline, and typestate-check
# proves each hazard class (publish-before-persist, missing-fence,
# missing-flush) fails to compile — with a type error, not incidentally.
cargo xtask typestate-check

echo
echo "== crash-point sweep (pinned seed, all points) =="
cargo test --test crash_sweep -- --nocapture

echo
echo "== sanitize gates: mutation tests + sampled sanitized sweep =="
# The persistence-order sanitizer must catch each seeded mutant (dropped
# flush, dropped fence, publish-before-persist) and report the unmutated
# paths clean. The sweep runs sampled: the sanitizer makes each point
# pricier, and the plain build above already swept exhaustively.
cargo test -q --features sanitize --test sanitize_mutations
TRIO_SWEEP_SAMPLE=13 cargo test -q --features sanitize --test crash_sweep
# The scalability data path must also run (and pass) with the sanitizer
# hooks compiled in — catches cfg drift between the two builds.
cargo test -q --features sanitize --test datapath

echo
echo "== race-detector gate: cross-LibFS races + clean delegated path =="
cargo test -q --test race_detect

echo
echo "== chaos gate: worker-kill sweep under concurrent delegated traffic =="
# Delegation failure domains (DESIGN.md §16): TRIO_CHAOS_ITER seeded
# iterations crossing worker-kill points (after-pop / mid-payload /
# before-reply) with multi-LibFS traffic and stall injection. Gates: no
# hangs, model equivalence (no lost or doubly-applied writes), every
# death recovered. Any failure replays from (CHAOS_SEED, iteration).
# Dumps target/chaos-report.json with recovery-latency percentiles.
TRIO_CHAOS_ITER="${TRIO_CHAOS_ITER:-500}" cargo test -q --release --test chaos_delegation
python3 - target/chaos-report.json <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
if r["worker_deaths"] == 0 or r["worker_deaths"] != r["worker_restarts"]:
    sys.exit(f"FAIL: chaos sweep deaths/restarts inconsistent: {r}")
print(
    f"OK: chaos sweep {r['iterations']} iters, {r['worker_deaths']} kills "
    f"recovered (p50 {r['recovery_p50_ns']} ns, p99 {r['recovery_p99_ns']} ns), "
    f"{r['dedup_hits']} dedup hits."
)
EOF

echo
echo "== adversarial gate: seeded grammar-corruption campaign (2k iters) =="
# The corruption fuzzer (DESIGN.md §14) drives every mutation production
# through a hostile LibFS at a fixed seed: zero panics, zero hangs,
# victim model-equivalence, and quarantine→repair→re-admission on every
# confirmed violation. Dumps target/adversary-report.json for triage;
# any failure line carries the (seed, iteration) needed to replay it via
# TRIO_ADV_SEED/TRIO_ADV_ITER.
TRIO_FUZZ_ITERS=2000 cargo test -q --release --test adversary_fuzz
echo "OK: adversarial campaign clean (report at target/adversary-report.json)."

echo
echo "== media gate: patrol-scrub routes + 500-iter seeded fault campaign =="
# Media-fault tolerance (DESIGN.md §19): the route-by-route patrol tests
# plus the seeded campaign — poison and silent rot injected under live
# delegated traffic, crash points planted inside the recovery repair.
# Gates on target/media-report.json: 100% metadata-fault detection, zero
# silent data loss, allocator conservation intact. Any iteration replays
# from (TRIO_MEDIA_SEED, i). The scrubber is opt-in (start_patrol), so
# the perf gate below doubles as the scrubber-idle 0.00%-delta check —
# no patrol thread exists unless a workload asks for one.
TRIO_MEDIA_ITER="${TRIO_MEDIA_ITER:-500}" cargo test -q --release --test media_campaign
python3 - target/media-report.json <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
if r["metadata_faults_injected"] == 0:
    sys.exit(f"FAIL: media campaign injected no metadata faults: {r}")
if r["metadata_faults_repaired"] != r["metadata_faults_injected"]:
    sys.exit(f"FAIL: metadata-fault detection below 100%: {r}")
if r["silent_data_loss"] != 0:
    sys.exit(f"FAIL: silent data loss under media faults: {r}")
if r["conservation_violations"] != 0:
    sys.exit(f"FAIL: allocator conservation violated: {r}")
print(
    f"OK: media campaign {r['iterations']} iters, "
    f"{r['metadata_faults_repaired']}/{r['metadata_faults_injected']} metadata faults repaired, "
    f"{r['data_faults_loud']}/{r['data_faults_injected']} data faults loud, 0 silent."
)
EOF

echo
echo "== zero-overhead gate: standalone trio-bench (no 'faults' feature) =="
# Built with -p, feature unification does not apply: trio-bench must
# compile and report faults_compiled() == false.
cargo bench -p trio-bench --bench micro_components 2>&1 | tee /tmp/trio_micro.$$ | sed -n '1,3p'
if grep -q "faults_compiled() == false" /tmp/trio_micro.$$; then
    rm -f /tmp/trio_micro.$$
    echo "OK: injection hooks are no-ops in the standalone bench build."
else
    rm -f /tmp/trio_micro.$$
    echo "FAIL: standalone bench build has the 'faults' feature enabled." >&2
    exit 1
fi

echo
echo "== obs gate: obs-on bench auto-dumps a valid flight-recorder timeline =="
# With the 'obs' feature on, bench_datapath must leave a parseable
# target/obs-timeline.json behind (DESIGN.md §15): non-empty events and
# per-stage histograms covering at least the ring hop and the worker
# service stage. The obs-off half of the gate is the xtask obs-gate lint
# above: no crate outside its obs.rs shim may reference trio_obs, so the
# standalone obs-off bench build stays symbol-free.
rm -f target/obs-timeline.json
TRIO_BENCH_OUT=/tmp/trio_obs_bench.$$ TRIO_SCALE=16 \
    cargo bench -p trio-bench --features obs --bench bench_datapath > /dev/null
rm -f /tmp/trio_obs_bench.$$
python3 - target/obs-timeline.json <<'EOF'
import json, sys
t = json.load(open(sys.argv[1]))
events = t.get("events", [])
stages = set(t.get("stages", {}))
if not events:
    sys.exit("FAIL: obs timeline has no events")
need = {"write/ring-hop", "write/worker-service"}
if not need <= stages:
    sys.exit(f"FAIL: obs timeline missing stages {need - stages}")
print(f"OK: obs timeline valid ({len(events)} events, {len(stages)} stages).")
EOF

echo
echo "== perf smoke gate: data-path bench vs committed baseline =="
# Regenerate BENCH numbers (virtual time: host noise cannot move them)
# and fail if delegated-write latency regressed >20% vs the committed
# BENCH_datapath.json baseline.
TRIO_BENCH_OUT=/tmp/trio_datapath.$$ TRIO_SCALE=16 \
    cargo bench -p trio-bench --bench bench_datapath
if [ -f BENCH_datapath.json ]; then
    python3 - /tmp/trio_datapath.$$ BENCH_datapath.json <<'EOF'
import json, sys
new = json.load(open(sys.argv[1]))
base = json.load(open(sys.argv[2]))
key = "delegated_write_ns_per_op"
n, b = float(new[key]), float(base[key])
if n > b * 1.2:
    sys.exit(f"FAIL: {key} regressed {n:.0f} ns vs baseline {b:.0f} ns (>20%)")
print(f"OK: {key} {n:.0f} ns vs baseline {b:.0f} ns (within 20%)")
# Typestate zero-cost gate (DESIGN.md §18): the persist-pipeline witness
# tokens are zero-sized and must compile away entirely. The bench runs in
# virtual time, so the delta vs the pre-typestate baseline is exact —
# anything beyond float formatting noise means the tokens grew code.
delta = abs(n - b) / b * 100.0
if delta > 0.05:
    sys.exit(f"FAIL: {key} moved {delta:.2f}% vs baseline; typestate tokens are not zero-cost")
print(f"OK: typestate tokens zero-cost ({key} delta {delta:.2f}%).")
# Zero-copy gate: grant-window delegation means the submit path never
# materializes a payload — one worker read from the granted pages is the
# only traversal. A nonzero copy counter is a reintroduced memcpy.
if int(new["payload_copies"]) != 0:
    sys.exit(f"FAIL: payload_copies = {new['payload_copies']}; delegation submit path copied a payload")
print("OK: payload_copies == 0 (grant windows, no materialization).")
# Inline-integrity gate: every delegated byte is checksummed in the same
# write pass (DESIGN.md §17). A shortfall means some lane silently
# skipped the streaming digest; an excess means a second traversal.
cs, dw = int(new["checksummed_bytes"]), int(new["delegated_write_bytes"])
if cs != dw:
    sys.exit(f"FAIL: checksummed_bytes {cs} != delegated_write_bytes {dw}")
print(f"OK: checksummed_bytes == delegated_write_bytes ({dw}).")
# The read lane must actually exercise delegation in the bench mix.
if int(new.get("delegated_read_bytes", 0)) == 0:
    sys.exit("FAIL: delegated_read_bytes == 0; read lane not exercised")
print(f"OK: delegated read lane exercised ({new['delegated_read_bytes']} bytes).")
# Watchdog quiescence: with no faults armed, the failure-domain machinery
# must never fire on the benched path — a nonzero counter here means the
# watchdog is adding work (and latency) to healthy delegated I/O.
quiet = ["worker_deaths", "worker_restarts", "deleg_redispatches",
         "deleg_dedup_hits", "degraded_enters", "degraded_exits"]
noisy = {k: new[k] for k in quiet if int(new.get(k, 0)) != 0}
if noisy:
    sys.exit(f"FAIL: watchdog counters nonzero in a fault-free perf run: {noisy}")
print(f"OK: watchdog counters quiescent on the benched path ({', '.join(quiet)}).")
# Lock-free control plane (DESIGN.md §20): steady-state data-path traffic
# — allocator refills, frees, spills, grant churn — must run without the
# registry control lock. The headline counter sums only the hot call
# sites; per-site attribution for any regression is in
# registry_lock_sites.
rl = int(new["registry_locks"])
if rl > 10:
    sys.exit(
        f"FAIL: registry_locks = {rl} on the benched data path (budget 10); "
        f"per-site: {new.get('registry_lock_sites')}"
    )
print(f"OK: registry_locks = {rl} on the data path (<= 10; control plane off the hot path).")
EOF
else
    echo "NOTE: no committed BENCH_datapath.json baseline; skipping comparison."
fi
# Determinism gate: virtual time is exact at a fixed seed, so a second
# run must reproduce the whole JSON byte for byte, secondary counters
# included. A diff means host state (e.g. hash iteration order) leaked
# into a simulated decision.
TRIO_BENCH_OUT=/tmp/trio_datapath2.$$ TRIO_SCALE=16 \
    cargo bench -p trio-bench --bench bench_datapath > /dev/null
if ! diff /tmp/trio_datapath.$$ /tmp/trio_datapath2.$$ >&2; then
    rm -f /tmp/trio_datapath.$$ /tmp/trio_datapath2.$$
    echo "FAIL: bench_datapath is not deterministic at its fixed seed." >&2
    exit 1
fi
echo "OK: bench_datapath JSON identical across two runs."
rm -f /tmp/trio_datapath.$$ /tmp/trio_datapath2.$$

echo
echo "== fig6(h) shape gate: 2 MiB write, 8 nodes, 224 threads =="
# The paper's delegation shape (DESIGN.md §17, idle-width fan-out): with
# every node's writer pool bounded, ArckFS at least matches OdinFS, its
# rings never backpressure, and no write is shed to direct access.
TRIO_BENCH_OUT=/tmp/trio_fig6h.$$ TRIO_SCALE=16 \
    cargo bench -p trio-bench --bench fig6h_gate
python3 - /tmp/trio_fig6h.$$ <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
arck, odin = float(r["arckfs_gib_s"]), float(r["odinfs_gib_s"])
if arck < odin:
    sys.exit(f"FAIL: fig6(h) ArckFS {arck:.2f} GiB/s < OdinFS {odin:.2f} GiB/s")
print(f"OK: fig6(h) ArckFS {arck:.2f} GiB/s >= OdinFS {odin:.2f} GiB/s.")
for key in ["ring_backpressure", "direct_write_bytes"]:
    if int(r[key]) != 0:
        sys.exit(f"FAIL: fig6(h) ArckFS {key} = {r[key]}; rings overflowed into direct writes")
print("OK: fig6(h) ArckFS ring_backpressure == 0 and direct_write_bytes == 0.")
EOF
rm -f /tmp/trio_fig6h.$$

echo
echo "== mega-tenant gate: 128 concurrent LibFS instances, lock-free control plane =="
# DESIGN.md §20: one kernel, N = {8, 32, 128} independent LibFS tenants
# doing metadata churn plus delegated writes. Gates: per-tenant metadata
# throughput at 128 tenants stays within 0.8x of the 8-tenant rate
# (near-linear control-plane scaling), and the hot-path registry-lock
# budget holds across every rung.
TRIO_BENCH_OUT=/tmp/trio_megatenant.$$ \
    cargo bench -p trio-bench --bench bench_megatenant
python3 - /tmp/trio_megatenant.$$ <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
scaling = float(r["scaling_8_to_128"])
if scaling < 0.8:
    sys.exit(
        f"FAIL: per-tenant metadata scaling 8->128 = {scaling:.3f} (< 0.8x); "
        f"per-rung rates: {r.get('meta_ops_per_sec_per_tenant')}"
    )
print(f"OK: per-tenant metadata scaling 8->128 = {scaling:.3f} (>= 0.8x).")
hot = int(r["max_hot_registry_locks"])
if hot > 10:
    sys.exit(
        f"FAIL: hot-path registry locks = {hot} across mega-tenant rungs (budget 10); "
        f"per-site: {r.get('registry_lock_sites')}"
    )
print(f"OK: hot-path registry locks = {hot} across all rungs (<= 10).")
EOF
rm -f /tmp/trio_megatenant.$$

echo
echo "verify.sh: all gates passed."
