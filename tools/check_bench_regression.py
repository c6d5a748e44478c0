#!/usr/bin/env python3
"""Compare fresh benchmark JSON against the committed baselines.

Usage:
    tools/check_bench_regression.py [--fresh PATH] [--baseline PATH]
        [--threshold PCT] [--require-simd-speedup]
    tools/check_bench_regression.py --serve-fresh BENCH_serve_latency.json
        [--serve-baseline PATH] [--threshold PCT]
    tools/check_bench_regression.py --rollout-fresh BENCH_rollout_fusion.json
        [--rollout-baseline PATH] [--threshold PCT] [--min-fusion-speedup X]
    tools/check_bench_regression.py --graphsize-fresh \
        BENCH_graphsize_scaling.json [--graphsize-baseline PATH]
        [--threshold PCT] [--max-superlinear-ratio X] [--max-mmap-load-ms MS]

The cost JSON is the per-kernel timer registry written by
bench/bench_micro_ops (obs::WriteRegistryJson): for every timer it records
count / total_s / mean_s / min_s / max_s. This script:

  * fails (exit 1) if any timer present in both files got more than
    --threshold percent slower by mean_s;
  * ignores timers faster than 1 microsecond in the baseline — at that
    scale the registry clock's quantization noise exceeds any real
    regression;
  * with --require-simd-speedup, additionally requires at least two
    `simd.<kernel>.avx2` timers to be >= 2x faster than their
    `simd.<kernel>.scalar` partner in the FRESH run (skipped with a
    warning when the fresh run carries no avx2 timers, e.g. a
    SAGDFN_SIMD=off host).

With --serve-fresh the script instead compares a BENCH_serve_latency.json
written by bench/bench_serve (per-scenario p50/p99 request latency and
throughput) against --serve-baseline: it fails if any scenario's p50 or
p99 latency grew by more than --threshold percent, or its throughput
dropped by more than --threshold percent. It additionally checks — on
the FRESH run alone, so it holds at any reader count — that every
serve.cached_reads.* scenario's p99 read latency is within
--max-cached-read-ratio (default 5) times the serve.unbatched p50: a
cache hit is one short-locked shared_ptr copy and must stay in the same
order of magnitude as a single uncontended request, not drift toward
recomputation cost. A second fresh-run-only criterion bounds the
multi-tenant router's fairness: every serve.tenant.multi.* scenario's
p99 must stay within --max-tenant-fairness-ratio (default 2) times the
serve.tenant.single p99 — four concurrent tenants may cost at most one
doubling over an idle router. Serve latency is wall-clock and queue-time
dominated, so CI runs this comparison NON-BLOCKING (informational) — a
failure there flags a trend to look at, not a gate.

With --rollout-fresh the script compares a BENCH_rollout_fusion.json
written by bench/bench_rollout (per-batch eager vs plan-replay rollout
latency) against --rollout-baseline: it fails if any scenario's plan
latency grew by more than --threshold percent, if any scenario's
fused+planned speedup over eager fell below --min-fusion-speedup, or if
the bench reported a broken invariant (replay-vs-eager mismatch, arena
high-water drift). Like the serve comparison this is wall-clock bound,
so CI runs it NON-BLOCKING with the JSON uploaded as an artifact.

With --graphsize-fresh the script checks a BENCH_graphsize_scaling.json
written by bench/bench_table4_graphsize --scaling (per-N dense and CSR
diffusion step time, frozen-model load time, and serve tick latency).
The load-bearing criterion is LINEARITY: ns_per_nm is the dense slim
diffusion cost (the kernel rollout plans run) normalized by N*M, so it
must stay roughly flat as N grows. Between consecutive sizes it may grow
by at most --max-superlinear-ratio (default 2.0; an O(N^2) kernel would
show ~5x from 2k to 10k). The script also requires every scenario's
mmap_load_ms to stay under --max-mmap-load-ms (default 100 — the mapped
frozen-model load must be milliseconds even at 100k nodes), requires the
bench's byte-identity invariants (csr_matches_dense, mmap_matches_heap)
to hold, and compares ns_per_nm against --graphsize-baseline with the
usual --threshold. The linearity and invariant checks are fresh-run-only
and PR-BLOCKING; the baseline comparison is wall-clock bound and
advisory like the others.

Exit codes: 0 ok, 1 regression (or speedup requirement unmet), 2 bad
invocation or unreadable input.
"""

import argparse
import json
import sys

# Timers below this baseline mean are pure clock noise.
MIN_COMPARABLE_S = 1e-6
DEFAULT_THRESHOLD_PCT = 25.0
REQUIRED_SPEEDUP = 2.0
REQUIRED_SPEEDUP_PAIRS = 2


def load_timers(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        print(f"error: cannot read {path}: {err}", file=sys.stderr)
        sys.exit(2)
    timers = doc.get("timers")
    if not isinstance(timers, dict):
        print(f"error: {path} has no 'timers' object", file=sys.stderr)
        sys.exit(2)
    return timers


def check_regressions(fresh, baseline, threshold_pct):
    failures = []
    compared = skipped = 0
    for name in sorted(baseline):
        if name not in fresh:
            print(f"note: timer '{name}' missing from fresh run; skipping")
            continue
        base_mean = baseline[name].get("mean_s", 0.0)
        fresh_mean = fresh[name].get("mean_s", 0.0)
        if base_mean < MIN_COMPARABLE_S:
            skipped += 1
            continue
        compared += 1
        delta_pct = 100.0 * (fresh_mean - base_mean) / base_mean
        marker = "REGRESSION" if delta_pct > threshold_pct else "ok"
        print(f"  {name:40s} base {base_mean:.3e}s  fresh {fresh_mean:.3e}s "
              f"({delta_pct:+6.1f}%)  {marker}")
        if delta_pct > threshold_pct:
            failures.append((name, delta_pct))
    print(f"compared {compared} timer(s), skipped {skipped} sub-microsecond")
    return failures


def check_simd_speedups(fresh):
    """Counts simd.<kernel> pairs where avx2 beats scalar by >= 2x."""
    kernels = {}
    for name, stats in fresh.items():
        parts = name.split(".")
        if len(parts) == 3 and parts[0] == "simd":
            kernels.setdefault(parts[1], {})[parts[2]] = stats.get("mean_s")
    pairs = {k: v for k, v in kernels.items()
             if v.get("scalar") and v.get("avx2")}
    if not pairs:
        print("warning: no scalar/avx2 timer pairs in fresh run "
              "(SAGDFN_SIMD=off host?); speedup check skipped")
        return True
    fast = 0
    for kernel in sorted(pairs):
        ratio = pairs[kernel]["scalar"] / pairs[kernel]["avx2"]
        qualifies = ratio >= REQUIRED_SPEEDUP
        fast += qualifies
        print(f"  simd.{kernel:12s} scalar/avx2 = {ratio:5.2f}x"
              f"{'  >= 2x' if qualifies else ''}")
    ok = fast >= REQUIRED_SPEEDUP_PAIRS
    print(f"{fast} kernel(s) at >= {REQUIRED_SPEEDUP:.0f}x "
          f"(need {REQUIRED_SPEEDUP_PAIRS})")
    return ok


def load_serve_scenarios(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        print(f"error: cannot read {path}: {err}", file=sys.stderr)
        sys.exit(2)
    scenarios = doc.get("serve")
    if not isinstance(scenarios, dict):
        print(f"error: {path} has no 'serve' object", file=sys.stderr)
        sys.exit(2)
    return scenarios


def check_serve_latency(fresh, baseline, threshold_pct):
    """Per-scenario p50/p99 growth and throughput drop vs baseline."""
    failures = []
    for name in sorted(baseline):
        if name not in fresh:
            print(f"note: scenario '{name}' missing from fresh run; skipping")
            continue
        for metric, worse_when in (("p50_us", "higher"), ("p99_us", "higher"),
                                   ("throughput_rps", "lower")):
            base = baseline[name].get(metric, 0.0)
            new = fresh[name].get(metric, 0.0)
            if base <= 0.0:
                continue
            delta_pct = 100.0 * (new - base) / base
            regressed = (delta_pct > threshold_pct if worse_when == "higher"
                         else delta_pct < -threshold_pct)
            marker = "REGRESSION" if regressed else "ok"
            print(f"  {name:20s} {metric:14s} base {base:12.1f}  "
                  f"fresh {new:12.1f} ({delta_pct:+6.1f}%)  {marker}")
            if regressed:
                failures.append((f"{name}.{metric}", delta_pct))
    return failures


def check_cached_read_ratio(fresh, max_ratio):
    """Fresh-run-only criterion: cached-read p99 vs unbatched p50.

    The cache's whole point is that a hit costs a pointer copy, not a
    model replay; this bounds the hit path at max_ratio x
    the single-request p50 regardless of reader count.
    """
    failures = []
    unbatched_p50 = fresh.get("serve.unbatched", {}).get("p50_us", 0.0)
    cached = {k: v for k, v in fresh.items()
              if k.startswith("serve.cached_reads.")}
    if unbatched_p50 <= 0.0 or not cached:
        print("note: cached-read ratio check skipped (missing "
              "serve.unbatched p50 or serve.cached_reads.* scenarios)")
        return failures
    bound = max_ratio * unbatched_p50
    for name in sorted(cached):
        p99 = cached[name].get("p99_us", 0.0)
        ratio = p99 / unbatched_p50
        ok = p99 <= bound
        marker = "ok" if ok else "TOO SLOW"
        print(f"  {name:28s} p99 {p99:10.1f}us = {ratio:6.2f}x unbatched "
              f"p50 {unbatched_p50:.1f}us (bound {max_ratio:.1f}x)  {marker}")
        if not ok:
            failures.append((f"{name}.cached_read_ratio", ratio))
    return failures


def check_tenant_fairness(fresh, max_ratio):
    """Fresh-run-only criterion: multi-tenant p99 vs single-tenant p99.

    The tenant router's isolation claim in latency terms: with four
    tenants under full concurrent load, no tenant's p99 may exceed
    max_ratio x the p99 the same replay sees on an otherwise idle
    single-tenant router. Computed within one run on one machine, so it
    is stable enough to block on (unlike absolute latencies).
    """
    failures = []
    single_p99 = fresh.get("serve.tenant.single", {}).get("p99_us", 0.0)
    multi = {k: v for k, v in fresh.items()
             if k.startswith("serve.tenant.multi.")}
    if single_p99 <= 0.0 or not multi:
        print("note: tenant fairness check skipped (missing "
              "serve.tenant.single p99 or serve.tenant.multi.* scenarios)")
        return failures
    bound = max_ratio * single_p99
    for name in sorted(multi):
        p99 = multi[name].get("p99_us", 0.0)
        ratio = p99 / single_p99
        ok = p99 <= bound
        marker = "ok" if ok else "UNFAIR"
        print(f"  {name:32s} p99 {p99:10.1f}us = {ratio:5.2f}x single-tenant "
              f"p99 {single_p99:.1f}us (bound {max_ratio:.1f}x)  {marker}")
        if not ok:
            failures.append((f"{name}.tenant_fairness_ratio", ratio))
    return failures


def load_rollout(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        print(f"error: cannot read {path}: {err}", file=sys.stderr)
        sys.exit(2)
    scenarios = doc.get("rollout")
    if not isinstance(scenarios, dict):
        print(f"error: {path} has no 'rollout' object", file=sys.stderr)
        sys.exit(2)
    return scenarios, doc.get("invariants", {})


def check_rollout(fresh, baseline, invariants, threshold_pct, min_speedup):
    """Plan-latency growth, fusion speedup floor, and bench invariants."""
    failures = []
    for name in sorted(fresh):
        speedup = fresh[name].get("speedup", 0.0)
        marker = "ok" if speedup >= min_speedup else "TOO SLOW"
        print(f"  {name:20s} eager {fresh[name].get('eager_ms', 0.0):8.3f}ms"
              f"  plan {fresh[name].get('plan_ms', 0.0):8.3f}ms"
              f"  speedup {speedup:5.2f}x (need {min_speedup:.2f}x)  {marker}")
        if speedup < min_speedup:
            failures.append((f"{name}.speedup", speedup))
    for name in sorted(baseline):
        if name not in fresh:
            print(f"note: scenario '{name}' missing from fresh run; skipping")
            continue
        base = baseline[name].get("plan_ms", 0.0)
        new = fresh[name].get("plan_ms", 0.0)
        if base <= 0.0:
            continue
        delta_pct = 100.0 * (new - base) / base
        regressed = delta_pct > threshold_pct
        marker = "REGRESSION" if regressed else "ok"
        print(f"  {name:20s} plan_ms base {base:8.3f}  fresh {new:8.3f} "
              f"({delta_pct:+6.1f}%)  {marker}")
        if regressed:
            failures.append((f"{name}.plan_ms", delta_pct))
    for key in ("replay_matches_eager", "arena_stable_across_ticks"):
        value = invariants.get(key, 0)
        print(f"  invariant {key}: {value}")
        if value != 1:
            failures.append((f"invariants.{key}", value))
    return failures


def load_graphsize(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        print(f"error: cannot read {path}: {err}", file=sys.stderr)
        sys.exit(2)
    scenarios = doc.get("graphsize")
    if not isinstance(scenarios, dict):
        print(f"error: {path} has no 'graphsize' object", file=sys.stderr)
        sys.exit(2)
    return scenarios, doc.get("invariants", {})


def check_graphsize(fresh, baseline, invariants, threshold_pct,
                    max_superlinear_ratio, max_mmap_load_ms):
    """Linearity in N*M, mmap load bound, invariants, baseline drift."""
    failures = []
    # Sort by the node count VALUE — the "n10000" key sorts before
    # "n2000" lexically.
    ordered = sorted(fresh, key=lambda k: fresh[k].get("nodes", 0))
    prev = None
    for name in ordered:
        row = fresh[name]
        nodes = row.get("nodes", 0)
        ns = row.get("ns_per_nm", 0.0)
        line = (f"  {name:8s} N={nodes:<7d}"
                f" dense {row.get('dense_step_ms', 0.0):8.3f}ms"
                f"  ns/(N*M) {ns:7.3f}")
        if prev is not None and prev[1] > 0.0:
            ratio = ns / prev[1]
            superlinear = ratio > max_superlinear_ratio
            line += (f"  x{ratio:.2f} vs {prev[0]}"
                     f" (bound {max_superlinear_ratio:.2f}x)"
                     f"{'  SUPERLINEAR' if superlinear else ''}")
            if superlinear:
                failures.append((f"{name}.ns_per_nm_ratio", ratio))
        print(line)
        prev = (name, ns)
    for name in ordered:
        mmap_ms = fresh[name].get("mmap_load_ms", 0.0)
        ok = mmap_ms <= max_mmap_load_ms
        print(f"  {name:8s} mmap load {mmap_ms:8.2f}ms "
              f"(bound {max_mmap_load_ms:.0f}ms)  {'ok' if ok else 'TOO SLOW'}")
        if not ok:
            failures.append((f"{name}.mmap_load_ms", mmap_ms))
    for key in ("csr_matches_dense", "mmap_matches_heap"):
        value = invariants.get(key, 0)
        print(f"  invariant {key}: {value}")
        if value != 1:
            failures.append((f"invariants.{key}", value))
    for name in sorted(baseline):
        if name not in fresh:
            print(f"note: scenario '{name}' missing from fresh run; skipping")
            continue
        base = baseline[name].get("ns_per_nm", 0.0)
        new = fresh[name].get("ns_per_nm", 0.0)
        if base <= 0.0:
            continue
        delta_pct = 100.0 * (new - base) / base
        regressed = delta_pct > threshold_pct
        marker = "REGRESSION" if regressed else "ok"
        print(f"  {name:8s} ns/(N*M) base {base:7.3f}  fresh {new:7.3f} "
              f"({delta_pct:+6.1f}%)  {marker}")
        if regressed:
            failures.append((f"{name}.ns_per_nm", delta_pct))
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fresh", default="BENCH_micro_ops_cost.json",
                        help="cost JSON from the run under test")
    parser.add_argument("--baseline",
                        default="bench/baselines/BENCH_micro_ops_cost.json",
                        help="committed baseline cost JSON")
    parser.add_argument("--threshold", type=float,
                        default=DEFAULT_THRESHOLD_PCT,
                        help="max tolerated per-timer slowdown, percent")
    parser.add_argument("--require-simd-speedup", action="store_true",
                        help="also require >= 2 simd kernels at >= 2x "
                             "avx2-over-scalar in the fresh run")
    parser.add_argument("--serve-fresh", default=None,
                        help="BENCH_serve_latency.json from the run under "
                             "test; selects the serve-latency comparison "
                             "instead of the micro-ops one")
    parser.add_argument("--serve-baseline",
                        default="bench/baselines/BENCH_serve_latency.json",
                        help="committed baseline serve latency JSON")
    parser.add_argument("--max-cached-read-ratio", type=float, default=5.0,
                        help="max tolerated serve.cached_reads.* p99 as a "
                             "multiple of the fresh serve.unbatched p50")
    parser.add_argument("--max-tenant-fairness-ratio", type=float,
                        default=2.0,
                        help="max tolerated serve.tenant.multi.* p99 as a "
                             "multiple of the fresh serve.tenant.single p99")
    parser.add_argument("--rollout-fresh", default=None,
                        help="BENCH_rollout_fusion.json from the run under "
                             "test; selects the rollout fused-vs-eager "
                             "comparison")
    parser.add_argument("--rollout-baseline",
                        default="bench/baselines/BENCH_rollout_fusion.json",
                        help="committed baseline rollout fusion JSON")
    parser.add_argument("--min-fusion-speedup", type=float, default=1.3,
                        help="minimum fused+planned speedup over the eager "
                             "rollout, per scenario")
    parser.add_argument("--graphsize-fresh", default=None,
                        help="BENCH_graphsize_scaling.json from the run "
                             "under test; selects the N*M linearity check")
    parser.add_argument("--graphsize-baseline",
                        default="bench/baselines/BENCH_graphsize_scaling.json",
                        help="committed baseline graphsize scaling JSON")
    parser.add_argument("--max-superlinear-ratio", type=float, default=2.0,
                        help="max tolerated growth of ns_per_nm between "
                             "consecutive graph sizes (linear => ~1.0)")
    parser.add_argument("--max-mmap-load-ms", type=float, default=100.0,
                        help="max tolerated mapped frozen-model load time "
                             "at any graph size, milliseconds")
    args = parser.parse_args()
    if args.threshold <= 0:
        print("error: --threshold must be positive", file=sys.stderr)
        return 2

    if args.graphsize_fresh is not None:
        fresh, invariants = load_graphsize(args.graphsize_fresh)
        baseline, _ = load_graphsize(args.graphsize_baseline)
        print(f"== graphsize scaling check (threshold {args.threshold:.0f}%, "
              f"superlinear bound {args.max_superlinear_ratio:.2f}x, "
              f"mmap bound {args.max_mmap_load_ms:.0f}ms) ==")
        failures = check_graphsize(fresh, baseline, invariants,
                                   args.threshold,
                                   args.max_superlinear_ratio,
                                   args.max_mmap_load_ms)
        if failures:
            for name, value in failures:
                print(f"FAIL: {name} = {value}", file=sys.stderr)
            return 1
        print("graphsize scaling check passed")
        return 0

    if args.rollout_fresh is not None:
        fresh, invariants = load_rollout(args.rollout_fresh)
        baseline, _ = load_rollout(args.rollout_baseline)
        print(f"== rollout fusion check (threshold {args.threshold:.0f}%, "
              f"min speedup {args.min_fusion_speedup:.2f}x) ==")
        failures = check_rollout(fresh, baseline, invariants, args.threshold,
                                 args.min_fusion_speedup)
        if failures:
            for name, value in failures:
                print(f"FAIL: {name} = {value}", file=sys.stderr)
            return 1
        print("rollout fusion check passed")
        return 0

    if args.serve_fresh is not None:
        fresh = load_serve_scenarios(args.serve_fresh)
        baseline = load_serve_scenarios(args.serve_baseline)
        print(f"== serve latency check (threshold {args.threshold:.0f}%) ==")
        failures = check_serve_latency(fresh, baseline, args.threshold)
        print(f"== cached-read hit-path check (bound "
              f"{args.max_cached_read_ratio:.1f}x unbatched p50) ==")
        failures += check_cached_read_ratio(fresh,
                                            args.max_cached_read_ratio)
        print(f"== multi-tenant fairness check (bound "
              f"{args.max_tenant_fairness_ratio:.1f}x single-tenant p99) ==")
        failures += check_tenant_fairness(fresh,
                                          args.max_tenant_fairness_ratio)
        if failures:
            for name, delta in failures:
                print(f"FAIL: {name} moved {delta:+.1f}%", file=sys.stderr)
            return 1
        print("serve latency check passed")
        return 0

    fresh = load_timers(args.fresh)
    baseline = load_timers(args.baseline)

    print(f"== regression check (threshold {args.threshold:.0f}%) ==")
    failures = check_regressions(fresh, baseline, args.threshold)

    speedup_ok = True
    if args.require_simd_speedup:
        print("== simd speedup check ==")
        speedup_ok = check_simd_speedups(fresh)

    if failures:
        for name, delta in failures:
            print(f"FAIL: {name} slowed down {delta:.1f}%", file=sys.stderr)
        return 1
    if not speedup_ok:
        print("FAIL: simd speedup requirement unmet", file=sys.stderr)
        return 1
    print("bench regression check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
