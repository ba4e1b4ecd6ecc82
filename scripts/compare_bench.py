#!/usr/bin/env python3
"""CI bench-regression gate: diff bench-smoke JSON artifacts against the
checked-in bench_baseline.json and fail on throughput regressions.

Every bench binary writes a BenchRun report (``--json``):

    {"bench": "...", "smoke": true, "elapsed_seconds": ..., "metrics": {...}}

The baseline pins the throughput-like metrics (name matching qps / ops /
rate / per_s / speedup / retention / throughput) in two classes:

* *Ratio* metrics (speedup, retention) are machine-independent — a
  quotient of two measurements from the same run on the same host, so the
  host's absolute speed cancels — and are the only metrics gated on value
  in required CI. A gated metric fails when

      result < baseline_value * (1 - tolerance)

  with the entry's recorded tolerance (0.4 for speedup-style ratios,
  0.5 for retention, which also depends on spare cores for the ingest
  producer), else the 0.25 default (the ">25% regression" rule).
* *Absolute* metrics (qps, updates/s, ...) are recorded as
  ``"informational": true``: printed with their delta for the log and the
  nightly full-mode artifacts, and failed only below the 10x collapse
  floor (``value < baseline * 0.1``) — smoke-mode absolute throughput
  recorded on one machine says nothing about a shared CI runner class,
  so a tight floor would block unrelated PRs on runner speed, but an
  order-of-magnitude collapse (an accidental O(n^2) path, a lock
  serializing everything) is a real regression no plausible runner-class
  gap produces, and ratios alone cannot see a uniform one.
* *Cost* metrics (bench_table3_crypto's ``bas_verify_ms``,
  ``bas_verify_1000_ms`` and ``bas_sign_fast_batch_us``) are
  informational absolutes where lower is
  better, recorded with ``"lower_is_better": true``: their collapse check
  fails above 10x the recorded value instead of below a tenth of it.

Both classes fail when a bench or metric present in the baseline is
missing from the results: a silently dropped bench is not a passing
bench, and that check is machine-independent.

Usage:
    compare_bench.py --baseline bench_baseline.json --results bench-results/
    compare_bench.py --baseline ... --self-test  # gate mechanics checks
    compare_bench.py ... --scale-results 0.5     # scale live results (manual)
    compare_bench.py ... --write-baseline        # refresh the baseline file
    compare_bench.py --ablation on.json off.json # batching ON/OFF delta

Exit status: 0 = no regression, 1 = regression / missing data, 2 = usage.
"""

import argparse
import json
import pathlib
import re
import sys

THROUGHPUT_RE = re.compile(
    r"(qps|ops_per_second|ops\b|per_s|rate|speedup|retention|throughput"
    r"|ratio)")

# Metric classes written into a generated baseline. Only ratio metrics
# are gated on value: speedup-style ratios get a 0.4 band — headroom over
# smoke-mode jitter, but below 0.5 so the self-test's uniform 2x slowdown
# lands under the floor — and retention (live/idle qps) gets 0.5 because
# it additionally depends on spare cores for the ingest producer, which
# shared runners do not guarantee. Absolute throughput metrics are marked
# informational: host-dependent values recorded on one machine must not
# gate other machines on a tight floor, but a uniform order-of-magnitude
# collapse is invisible to ratios, so informational metrics still fail
# below COLLAPSE_FRACTION of the recorded value. Gated metrics without
# an explicit tolerance use the strict 25% default.
RATIO_RE = re.compile(r"(speedup|ratio)")
RETENTION_RE = re.compile(r"retention")
RATIO_TOLERANCE = 0.4
RETENTION_TOLERANCE = 0.5
DEFAULT_TOLERANCE = 0.25
COLLAPSE_FRACTION = 0.1

# The shard-scaling contract: these 4-shard-vs-1-shard busy-time capacity
# ratios (bench_mixed_queries) are REQUIRED gated metrics with a hard
# absolute floor, independent of the baseline-relative tolerance band. The
# band catches drift from the recorded value; the floor says the sharded
# server must scale at all — a ratio at or below ~1x means shard visits
# have collapsed onto one shard (or the busy accounting broke), which a
# generous band around a high recorded value could otherwise wave through.
SCALING_FLOOR_RE = re.compile(
    r"^(read_qps_ratio_4v1|join_qps_ratio_4v1|mixed_ops_ratio_4v1)$")
SCALING_FLOOR = 1.2
# Scaling ratios divide per-shard busy times, which at smoke scale are
# micro-measurements (a few hundred microseconds of join work per shard)
# — far noisier than the speedup/retention ratios of whole-run wall
# clocks. The absolute contract floor above is their primary gate; the
# baseline-relative band stays loose so runner jitter around a high
# recorded ratio cannot fail a healthy build.
SCALING_TOLERANCE = 0.65

# The crypto hot-path contract (bench_table3_crypto): the multi-buffer
# SHA front end must beat the forced-scalar tier by >= 1.5x on the bulk
# digest workload. The measured quotient depends on which dispatch tier
# the host runs (SHA-NI lands far above AVX2, which lands above nothing),
# so a baseline-relative band recorded on one tier is meaningless on
# another runner class — the tolerance is set wide enough that only the
# absolute contract floor gates, on every tier that claims to be SIMD.
SIMD_SPEEDUP_RE = re.compile(r"^sha(1|256)_multibuf_speedup$")
SIMD_SPEEDUP_FLOOR = 1.5
SIMD_SPEEDUP_TOLERANCE = 0.9

# The probe-batching contract (bench_fig11_join): how much ProbeMany's
# bulk hashing + block prefetch beats the scalar probe loop depends on
# how well the host's out-of-order window already hides the filter's
# cache misses — deep-window runners can flatten the quotient toward 1x
# without anything regressing — so the baseline-relative band is loose
# and the absolute floor only rejects the true failure mode: a batched
# path that LOSES to the scalar loop it replaced.
PROBE_SPEEDUP_RE = re.compile(r"^join_probe_throughput_speedup$")
PROBE_SPEEDUP_FLOOR = 0.8
PROBE_SPEEDUP_TOLERANCE = 0.75

# The partition-refresh contract (bench_fig11_join): an insert-only
# period must refresh the largest partition with a certified delta merge
# at least 2x cheaper than the full rebuild a deletion forces. Same-run
# quotient, so host speed cancels; but the split between signature cost
# and per-value filter work varies by host, so the baseline-relative band
# stays loose and the absolute floor is the real gate — a delta path that
# stops beating the rebuild it exists to avoid is a regression on every
# host.
REFRESH_FLOOR_RE = re.compile(r"^refresh_cost_ratio_delta_vs_rebuild$")
REFRESH_FLOOR = 2.0
REFRESH_TOLERANCE = 0.9

# The overload contract (bench_open_loop): at 2x measured capacity with
# admission control on, goodput — served plans only, sheds excluded —
# must stay at or above this fraction of the closed-loop capacity. Like
# the scaling floor, this is an absolute machine-independent floor (a
# ratio of two same-run measurements): a server that collapses under
# overload instead of shedding fails here even when a generous
# baseline-relative band would wave it through.
GOODPUT_FLOOR_RE = re.compile(r"^goodput_ratio_at_2x_capacity$")
GOODPUT_FLOOR = 0.6

# Cost metrics (bench_table3_crypto's BAS verify and batched kFast sign
# times): host-dependent absolutes where LOWER is better. They are
# informational like the throughput absolutes, but marked
# "lower_is_better" so their collapse check runs the other way: fail only
# when the value grows past 1/COLLAPSE_FRACTION (10x) of the recorded one.
COST_RE = re.compile(r"^(bas_verify(_1000)?_ms|bas_sign_fast_batch_us)$")


def is_gated(name):
    return (THROUGHPUT_RE.search(name) is not None
            or COST_RE.match(name) is not None)


def load_results(results_dir):
    """name -> metrics dict, from every BenchRun JSON in the directory."""
    out = {}
    for path in sorted(pathlib.Path(results_dir).glob("*.json")):
        try:
            report = json.loads(path.read_text())
        except ValueError:
            print(f"note: skipping unparseable {path}")
            continue
        if not isinstance(report, dict) or "metrics" not in report:
            continue  # e.g. google-benchmark output (bench_ablation_micro)
        out[report.get("bench", path.stem)] = report["metrics"]
    return out


def write_baseline(path, results, threshold):
    benches = {}
    for bench, metrics in sorted(results.items()):
        pinned = {}
        for name, value in sorted(metrics.items()):
            if not is_gated(name):
                continue
            entry = {"value": value}
            if RATIO_RE.search(name):
                entry["tolerance"] = RATIO_TOLERANCE
            elif RETENTION_RE.search(name):
                entry["tolerance"] = RETENTION_TOLERANCE
            else:
                entry["informational"] = True
            if COST_RE.match(name):
                entry["lower_is_better"] = True
            if SCALING_FLOOR_RE.match(name):
                entry["floor"] = SCALING_FLOOR
                entry["tolerance"] = SCALING_TOLERANCE
            if GOODPUT_FLOOR_RE.match(name):
                entry["floor"] = GOODPUT_FLOOR
            if SIMD_SPEEDUP_RE.match(name):
                entry["floor"] = SIMD_SPEEDUP_FLOOR
                entry["tolerance"] = SIMD_SPEEDUP_TOLERANCE
            if REFRESH_FLOOR_RE.match(name):
                entry["floor"] = REFRESH_FLOOR
                entry["tolerance"] = REFRESH_TOLERANCE
            if PROBE_SPEEDUP_RE.match(name):
                entry["floor"] = PROBE_SPEEDUP_FLOOR
                entry["tolerance"] = PROBE_SPEEDUP_TOLERANCE
            pinned[name] = entry
        if pinned:
            benches[bench] = pinned
    doc = {
        "_meta": {
            "tool": "scripts/compare_bench.py",
            "default_tolerance": threshold,
            "note": "regenerate with --write-baseline after intentional "
                    "performance changes; smoke-mode values. Only ratio "
                    "metrics (speedup/retention) gate required CI on a "
                    "tight band; informational absolutes are "
                    "presence-checked, reported, and failed only below "
                    "the 10x collapse floor.",
        },
        "benches": benches,
    }
    pathlib.Path(path).write_text(json.dumps(doc, indent=2) + "\n")
    gated = sum(1 for m in benches.values() for e in m.values()
                if not e.get("informational"))
    info = sum(1 for m in benches.values() for e in m.values()
               if e.get("informational"))
    print(f"wrote {path}: {len(benches)} benches, {gated} gated metrics, "
          f"{info} informational")


def gate(doc, results, threshold, scale):
    if threshold is None:  # no CLI override: honor the baseline's default
        threshold = doc.get("_meta", {}).get("default_tolerance",
                                             DEFAULT_TOLERANCE)
    failures = []
    gated = 0
    informational = 0
    for bench, metrics in sorted(doc.get("benches", {}).items()):
        if bench not in results:
            failures.append(f"{bench}: no result JSON found")
            continue
        have = results[bench]
        for name, entry in sorted(metrics.items()):
            base = entry["value"]
            if name not in have:
                failures.append(f"{bench}.{name}: metric missing from results")
                continue
            value = have[name] * scale
            if entry.get("informational"):
                # Host-dependent absolute metric: reported for the log,
                # failed only below the 10x collapse floor.
                informational += 1
                delta = (value / base - 1.0) * 100.0 if base else 0.0
                if entry.get("lower_is_better"):
                    limit = base / COLLAPSE_FRACTION
                    collapsed = value > limit
                    bound = f"above {limit:.4g}"
                else:
                    limit = base * COLLAPSE_FRACTION
                    collapsed = value < limit
                    bound = f"below {limit:.4g}"
                if collapsed:
                    failures.append(
                        f"{bench}.{name}: {value:.4g} is {bound}, the 10x "
                        f"collapse limit of recorded {base:.4g}")
                    print(f"  {'COLLAPSE':>10}  {bench}.{name}: {value:.4g} "
                          f"vs recorded {base:.4g} ({delta:+.1f}%)")
                else:
                    print(f"  {'info':>10}  {bench}.{name}: {value:.4g} "
                          f"vs recorded {base:.4g} ({delta:+.1f}%, gated "
                          f"only {bound})")
                continue
            gated += 1
            tolerance = entry.get("tolerance", threshold)
            floor = base * (1.0 - tolerance)
            verdict = "ok"
            if value < floor:
                verdict = "REGRESSION"
                failures.append(
                    f"{bench}.{name}: {value:.4g} < floor {floor:.4g} "
                    f"(baseline {base:.4g}, tolerance {tolerance:.0%})")
            # Absolute hard floor (the shard-scaling contract): checked in
            # addition to the baseline-relative band — a value inside the
            # band but below the contract floor still fails.
            hard = entry.get("floor")
            if hard is not None and value < hard and verdict == "ok":
                verdict = "BELOW-FLOOR"
                failures.append(
                    f"{bench}.{name}: {value:.4g} < required floor "
                    f"{hard:.4g} (scaling contract, independent of the "
                    f"baseline band)")
            print(f"  {verdict:>10}  {bench}.{name}: {value:.4g} "
                  f"vs baseline {base:.4g} (floor {floor:.4g}"
                  + (f", required >= {hard:.4g}" if hard is not None else "")
                  + ")")
    print(f"checked {gated} gated + {informational} informational "
          f"(collapse-floor-only) metrics, {len(failures)} failure(s)")
    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    return 1 if failures else 0


def self_test(doc, threshold):
    """Deterministic gate check: a uniform 2x slowdown of the *baseline's
    own values* must fail the gate. Independent of the host running it —
    live measurements never enter the check — so it validates the gate
    mechanics (and that the baseline still contains at least one gated
    ratio metric able to catch the slowdown) without flaking on fast or
    slow runners."""
    synthetic = {
        bench: {name: entry["value"] * 0.5 for name, entry in metrics.items()}
        for bench, metrics in doc.get("benches", {}).items()
    }
    rc = gate(doc, synthetic, threshold, 1.0)
    if rc == 0:
        print("SELF-TEST FAILED: a uniform 2x slowdown of the baseline "
              "passed the gate — no gated ratio metric left?",
              file=sys.stderr)
        return 1
    print("self-test ok: uniform 2x slowdown of the baseline is rejected")

    # Scaling-floor mechanics: a ratio INSIDE the baseline-relative band
    # but below the absolute contract floor must still fail. Synthetic
    # baseline: recorded 1.3 with the 0.4 ratio band puts the band floor
    # at 0.78; a measured 1.15 clears that band yet sits below the 1.2
    # contract floor — only the "floor" key can reject it.
    floor_doc = {"benches": {"synthetic_scaling": {
        "mixed_ops_ratio_4v1":
            {"value": 1.3, "tolerance": 0.4, "floor": SCALING_FLOOR},
    }}}
    rc = gate(floor_doc, {"synthetic_scaling": {"mixed_ops_ratio_4v1": 1.15}},
              threshold, 1.0)
    if rc == 0:
        print("SELF-TEST FAILED: a sub-floor scaling ratio (1.15 < "
              f"{SCALING_FLOOR}) inside the tolerance band passed the gate",
              file=sys.stderr)
        return 1
    print(f"self-test ok: sub-floor scaling ratio (1.15 < {SCALING_FLOOR}) "
          "is rejected even inside the tolerance band")

    # Goodput-floor mechanics (the overload contract): a goodput ratio
    # inside the 0.4 relative band around a healthy recorded value but
    # below the absolute 0.6 floor must still fail — a server that keeps
    # only half its capacity as goodput under 2x load is overloading
    # wrong, whatever it did last time.
    goodput_doc = {"benches": {"synthetic_overload": {
        "goodput_ratio_at_2x_capacity":
            {"value": 0.9, "tolerance": 0.4, "floor": GOODPUT_FLOOR},
    }}}
    rc = gate(goodput_doc,
              {"synthetic_overload": {"goodput_ratio_at_2x_capacity": 0.55}},
              threshold, 1.0)
    if rc == 0:
        print("SELF-TEST FAILED: a sub-floor goodput ratio (0.55 < "
              f"{GOODPUT_FLOOR}) inside the tolerance band passed the gate",
              file=sys.stderr)
        return 1
    print(f"self-test ok: sub-floor goodput ratio (0.55 < {GOODPUT_FLOOR}) "
          "is rejected even inside the tolerance band")

    # SIMD-speedup-floor mechanics (the crypto hot-path contract): a
    # speedup inside the deliberately loose relative band but below the
    # absolute 1.5x floor must still fail — a "SIMD" front end that does
    # not beat scalar is a regression whatever tier recorded the baseline.
    simd_doc = {"benches": {"synthetic_crypto": {
        "sha1_multibuf_speedup":
            {"value": 9.0, "tolerance": SIMD_SPEEDUP_TOLERANCE,
             "floor": SIMD_SPEEDUP_FLOOR},
    }}}
    rc = gate(simd_doc,
              {"synthetic_crypto": {"sha1_multibuf_speedup": 1.2}},
              threshold, 1.0)
    if rc == 0:
        print("SELF-TEST FAILED: a sub-floor SIMD speedup (1.2 < "
              f"{SIMD_SPEEDUP_FLOOR}) inside the tolerance band passed "
              "the gate", file=sys.stderr)
        return 1
    print(f"self-test ok: sub-floor SIMD speedup (1.2 < "
          f"{SIMD_SPEEDUP_FLOOR}) is rejected even inside the tolerance "
          "band")

    # Refresh-floor mechanics (the partition-refresh contract): a
    # delta-vs-rebuild cost ratio inside the deliberately loose relative
    # band but below the absolute 2x floor must still fail — a delta
    # refresh that is not clearly cheaper than the rebuild it replaces
    # has lost the point of shipping deltas, whatever the recorded value.
    refresh_doc = {"benches": {"synthetic_refresh": {
        "refresh_cost_ratio_delta_vs_rebuild":
            {"value": 12.0, "tolerance": REFRESH_TOLERANCE,
             "floor": REFRESH_FLOOR},
    }}}
    rc = gate(refresh_doc,
              {"synthetic_refresh":
                   {"refresh_cost_ratio_delta_vs_rebuild": 1.6}},
              threshold, 1.0)
    if rc == 0:
        print("SELF-TEST FAILED: a sub-floor refresh cost ratio (1.6 < "
              f"{REFRESH_FLOOR}) inside the tolerance band passed the gate",
              file=sys.stderr)
        return 1
    print(f"self-test ok: sub-floor refresh cost ratio (1.6 < "
          f"{REFRESH_FLOOR}) is rejected even inside the tolerance band")

    # Cost-collapse mechanics: a lower-is-better informational metric
    # fails when it grows past 10x its recorded value, and passes when it
    # falls by the same factor (a faster verify is not a collapse).
    cost_doc = {"benches": {"synthetic_cost": {
        "bas_verify_ms":
            {"value": 4.0, "informational": True, "lower_is_better": True},
    }}}
    if gate(cost_doc, {"synthetic_cost": {"bas_verify_ms": 50.0}},
            threshold, 1.0) == 0:
        print("SELF-TEST FAILED: a 12.5x growth of a lower-is-better cost "
              "metric passed the gate", file=sys.stderr)
        return 1
    if gate(cost_doc, {"synthetic_cost": {"bas_verify_ms": 0.3}},
            threshold, 1.0) != 0:
        print("SELF-TEST FAILED: a 13x drop of a lower-is-better cost "
              "metric failed the gate", file=sys.stderr)
        return 1
    print("self-test ok: lower-is-better cost metrics collapse upward only")

    # And the floors must actually be pinned: every scaling-contract,
    # overload-contract, crypto-contract, and refresh-contract ratio
    # present in the real baseline has to carry the "floor" key, or the
    # contract silently degrades to the relative band.
    missing = [
        f"{bench}.{name}"
        for bench, metrics in doc.get("benches", {}).items()
        for name, entry in metrics.items()
        if (SCALING_FLOOR_RE.match(name) or GOODPUT_FLOOR_RE.match(name)
            or SIMD_SPEEDUP_RE.match(name) or REFRESH_FLOOR_RE.match(name)
            or PROBE_SPEEDUP_RE.match(name))
        and "floor" not in entry
    ]
    if missing:
        print("SELF-TEST FAILED: scaling ratios without a required floor: "
              + ", ".join(sorted(missing)), file=sys.stderr)
        return 1
    return 0


def ablation(on_path, off_path):
    """Informational ablation report: compare one BenchRun JSON produced
    with a feature ON (batching, SIMD crypto)
    against one with it forced OFF and print the per-metric delta. Never
    gates — the ON run is what the baseline and the contracts judge; this
    step documents what the feature buys on the runner that produced the
    artifacts."""
    reports = []
    for path in (on_path, off_path):
        report = json.loads(pathlib.Path(path).read_text())
        if "metrics" not in report:
            print(f"{path}: not a BenchRun report", file=sys.stderr)
            return 1
        reports.append(report["metrics"])
    on, off = reports
    shared = sorted(set(on) & set(off) - {"batching_enabled"})
    if not shared:
        print("no shared metrics between ON and OFF artifacts",
              file=sys.stderr)
        return 1
    print(f"batching ablation (ON vs OFF), {len(shared)} shared metrics:")
    for name in shared:
        ratio = on[name] / off[name] if off[name] else float("inf")
        print(f"  {name}: ON {on[name]:.4g} vs OFF {off[name]:.4g} "
              f"({ratio:.2f}x)")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline", default="bench_baseline.json")
    ap.add_argument("--results",
                    help="directory of BenchRun --json reports")
    ap.add_argument("--self-test", action="store_true",
                    help="check that a 2x slowdown of the baseline's own "
                         "values fails the gate (exit 0 when it does)")
    ap.add_argument("--threshold", type=float, default=None,
                    help="default fractional regression tolerance "
                         f"(default: the baseline's recorded value, else "
                         f"{DEFAULT_TOLERANCE})")
    ap.add_argument("--scale-results", type=float, default=1.0,
                    help="multiply result metrics (0.5 simulates a 2x "
                         "slowdown; used by the CI gate self-test)")
    ap.add_argument("--write-baseline", action="store_true",
                    help="write the baseline from the results instead of "
                         "gating")
    ap.add_argument("--ablation", nargs=2, metavar=("ON_JSON", "OFF_JSON"),
                    help="informational: report the per-metric delta "
                         "between a batching-ON and a batching-OFF "
                         "BenchRun artifact (no gating)")
    args = ap.parse_args()

    if args.ablation:
        return ablation(args.ablation[0], args.ablation[1])
    if args.self_test:
        doc = json.loads(pathlib.Path(args.baseline).read_text())
        return self_test(doc, args.threshold)
    if not args.results:
        ap.error("--results is required unless --self-test is given")
    results = load_results(args.results)
    if not results:
        print(f"no bench results under {args.results}", file=sys.stderr)
        return 1
    if args.write_baseline:
        write_baseline(args.baseline, results,
                       args.threshold if args.threshold is not None
                       else DEFAULT_TOLERANCE)
        return 0
    doc = json.loads(pathlib.Path(args.baseline).read_text())
    return gate(doc, results, args.threshold, args.scale_results)


if __name__ == "__main__":
    sys.exit(main())
