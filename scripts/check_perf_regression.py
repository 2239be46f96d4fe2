#!/usr/bin/env python3
"""Generic perf-regression gate over BENCH_*.json artifacts.

Instead of one hardcoded comparison, this diffs any bench JSON — google-benchmark format ("benchmarks" list)
or the repo JsonEmitter format ("records" list) — against a committed
baseline with per-metric tolerances, checks within-file pair ratios
(e.g. analytic vs best-timed Q), and/or floors the median of a same-run
fraction (e.g. packed GEMM's frac_peak). It is the single CI perf gate.

Modes (combinable):

  Baseline diff      --baseline FILE --metric NAME:DIR:TOL ...
      For every entry present in both files, require
        DIR == higher:  current >= TOL * baseline
        DIR == lower:   current <= TOL * baseline
      e.g. --metric GFLOPS:higher:0.80 tolerates a 20% regression.
      --require-coverage additionally fails if a baseline entry is
      missing from the current file (optionally restricted by
      --coverage-filter REGEX).

  Pair ratio         --pair CUR_PREFIX=REF_PREFIX --pair-metric M
                     --min-pair-ratio R
      Pairs entries whose names share a suffix after one of the two
      prefixes and requires the median CUR/REF ratio of metric M to be
      >= R. Machine-independent (both sides run on the same host), so
      this is the strong gate; absolute baseline diffs across different
      runners should use loose tolerances. --min-each-pair-ratio R2
      additionally bounds every individual pair (no outlier escape).

  Floor              --floor PREFIX:METRIC:MIN ...
      Requires the median of METRIC over the entries whose names start
      with PREFIX to be >= MIN. Meant for metrics that are already a
      fraction of what the runner can do, with both sides measured in
      one process: frac_peak (GFLOP/s over ISA flops/cycle x reported
      clock x threads) and frac_triad (modeled GB/s over a warm STREAM
      triad timed in the same round-robin). Every matched entry must
      also carry a positive METRIC.

  Host binding       --floor-host KEY=VALUE ...
      Binds every --floor to the hardware it was calibrated on: each
      rule is checked against the bench JSON's "context" block (e.g.
      gemm_kernel, num_cpus, physical_cores, l3_bytes). What fraction
      of its ceiling a kernel reaches depends on the core count, SMT,
      the reported clock and the caches, so on a host that differs in
      any rule the floors are reported but not enforced; the positive-
      METRIC check still runs.

Entries are keyed by benchmark name (google-benchmark) or by the record
"kind" plus the values of --key fields (JsonEmitter). Metrics are any
numeric field of the entry. Entries whose "pmu" / "pmu_available" field
is falsy are skipped for counter-derived metrics (ipc, llc_miss_rate,
measured_gbps, cycles_per_iter, frac_peak_measured) — a PMU-less runner
must not fail the gate for reporting no hardware counters.

  check_perf_regression.py current.json --baseline BENCH_kernels.json \\
      --metric GFLOPS:higher:0.5 --floor BM_GemmPacked:frac_peak:0.39 \\
      --floor-host gemm_kernel=avx512-12x32 --floor-host physical_cores=4

  check_perf_regression.py --self-test
"""

import argparse
import json
import re
import statistics
import sys

PMU_ONLY_METRICS = {
    "ipc", "llc_miss_rate", "measured_gbps", "cycles_per_iter",
    "frac_peak_measured", "cycles", "instructions", "llc_loads",
    "llc_misses", "stalled_cycles_backend", "branch_misses",
}


def load_entries(doc, key_fields):
    """Map {entry_key: {metric: value}} from either bench JSON format."""
    entries = {}
    if "benchmarks" in doc:  # google-benchmark
        for entry in doc.get("benchmarks", []):
            if entry.get("run_type") == "aggregate":
                continue
            name = entry.get("name")
            if not name:
                continue
            entries[name] = {
                k: float(v)
                for k, v in entry.items()
                if isinstance(v, (int, float)) and not isinstance(v, bool)
            }
            if isinstance(entry.get("pmu"), (int, float)):
                entries[name]["pmu"] = float(entry["pmu"])
    elif "records" in doc:  # repo JsonEmitter
        for rec in doc.get("records", []):
            kind = rec.get("kind", "record")
            ident = [str(kind)]
            for field in key_fields:
                if field in rec:
                    ident.append(f"{field}={rec[field]}")
            key = "/".join(ident)
            metrics = {
                k: float(v)
                for k, v in rec.items()
                if isinstance(v, (int, float)) and not isinstance(v, bool)
            }
            if isinstance(rec.get("pmu_available"), bool):
                metrics["pmu"] = 1.0 if rec["pmu_available"] else 0.0
            entries[key] = metrics
    else:
        raise ValueError("unrecognized bench JSON: expected a "
                         "'benchmarks' or 'records' list")
    return entries


def load_file(path, key_fields):
    with open(path) as f:
        return load_entries(json.load(f), key_fields)


def load_context(doc):
    """Host description: google-benchmark's "context" block."""
    return doc.get("context", {})


def has_pmu(metrics):
    return metrics.get("pmu", 0.0) > 0.0


def is_pmu_metric(name):
    """Counter-derived metric, possibly phase-prefixed (gemm_ipc)."""
    return (name in PMU_ONLY_METRICS
            or any(name.endswith("_" + m) for m in PMU_ONLY_METRICS))


def parse_metric_rule(spec):
    parts = spec.split(":")
    if len(parts) != 3 or parts[1] not in ("higher", "lower"):
        raise ValueError(
            f"bad --metric '{spec}': expected NAME:higher|lower:TOL")
    return parts[0], parts[1], float(parts[2])


def check_baseline(current, baseline, rules, require_coverage,
                   coverage_filter, out):
    failures = []
    if require_coverage:
        pat = re.compile(coverage_filter) if coverage_filter else None
        for key in sorted(baseline):
            if pat is not None and not pat.search(key):
                continue
            if key not in current:
                failures.append(f"coverage: baseline entry '{key}' missing "
                                "from current file")
    for name, direction, tol in rules:
        compared = 0
        for key in sorted(set(current) & set(baseline)):
            cur, base = current[key], baseline[key]
            if name not in cur or name not in base:
                continue
            if is_pmu_metric(name) and not (has_pmu(cur) and has_pmu(base)):
                continue
            c, b = cur[name], base[name]
            compared += 1
            bound = tol * b
            ok = c >= bound if direction == "higher" else c <= bound
            mark = "ok" if ok else "FAIL"
            out(f"  {mark:<4} {key:<40} {name}: current {c:.4g} vs "
                f"{direction} bound {bound:.4g} (baseline {b:.4g})")
            if not ok:
                failures.append(
                    f"{key}: {name} {c:.4g} violates {direction} bound "
                    f"{bound:.4g} (= {tol} * baseline {b:.4g})")
        out(f"baseline metric '{name}' ({direction}, tol {tol}): "
            f"{compared} entries compared")
        if compared == 0:
            failures.append(f"metric '{name}': nothing compared — wrong "
                            "metric name or no shared entries")
    return failures


def check_pairs(current, cur_prefix, ref_prefix, metric, min_ratio, out,
                min_each_ratio=None):
    pairs, ratios = [], []
    for key, metrics in current.items():
        if not key.startswith(cur_prefix) or metric not in metrics:
            continue
        suffix = key[len(cur_prefix):]
        ref_key = ref_prefix + suffix
        ref = current.get(ref_key)
        if ref is None or metric not in ref:
            continue
        if is_pmu_metric(metric) and not (has_pmu(metrics)
                                          and has_pmu(ref)):
            continue
        denom = ref[metric]
        ratio = metrics[metric] / denom if denom > 0 else float("inf")
        pairs.append((suffix, metrics[metric], denom, ratio))
        ratios.append(ratio)
    if not ratios:
        return [f"pair {cur_prefix}={ref_prefix}: no pairs found for "
                f"metric '{metric}'"]
    for suffix, c, r, ratio in sorted(pairs):
        out(f"  {cur_prefix}{suffix:<24} {c:>10.2f} vs "
            f"{ref_prefix}{suffix:<24} {r:>10.2f} -> {ratio:.2f}x")
    median = statistics.median(ratios)
    out(f"pair {cur_prefix}/{ref_prefix} median {metric} ratio over "
        f"{len(ratios)} pairs: {median:.2f}x (floor {min_ratio:.2f}x)")
    failures = []
    if median < min_ratio:
        failures.append(f"pair {cur_prefix}={ref_prefix}: median {metric} "
                        f"ratio {median:.2f}x below floor {min_ratio:.2f}x")
    if min_each_ratio is not None:
        # Per-pair floor: no individual shape may fall below it (the median
        # gate tolerates outliers; this one doesn't).
        for suffix, c, r, ratio in sorted(pairs):
            if ratio < min_each_ratio:
                failures.append(
                    f"pair {cur_prefix}={ref_prefix}: entry '{suffix}' "
                    f"{metric} ratio {ratio:.2f}x below per-pair floor "
                    f"{min_each_ratio:.2f}x")
    return failures


def parse_floor_rule(spec):
    parts = spec.rsplit(":", 2)
    if len(parts) != 3 or not parts[0] or not parts[1]:
        raise ValueError(f"bad --floor '{spec}': expected PREFIX:METRIC:MIN")
    return parts[0], parts[1], float(parts[2])


def parse_host_rule(spec):
    key, sep, want = spec.partition("=")
    if not key or not sep or not want:
        raise ValueError(f"bad --floor-host '{spec}': expected KEY=VALUE")
    return key, want


def host_mismatches(context, rules):
    """The rules the host in `context` breaks, as readable strings."""
    return [f"{key}={context.get(key)} (calibrated for {key}={want})"
            for key, want in rules if str(context.get(key)) != want]


def check_floor(current, prefix, metric, floor, out, enforce=True):
    values = sorted((key, m[metric]) for key, m in current.items()
                    if key.startswith(prefix) and metric in m)
    if not values:
        return [f"floor {prefix}: no entries carry metric '{metric}'"]
    failures = []
    for key, v in values:
        out(f"  {key:<40} {metric}: {v:.4g}")
        if not v > 0:
            failures.append(f"floor {prefix}: entry '{key}' {metric} {v:.4g} "
                            "is not positive")
    median = statistics.median(v for _, v in values)
    out(f"floor {prefix} median {metric} over {len(values)} entries: "
        f"{median:.4g} (floor {floor:.4g}"
        f"{'' if enforce else ', not enforced on this host'})")
    if enforce and median < floor:
        failures.append(f"floor {prefix}: median {metric} {median:.4g} "
                        f"below floor {floor:.4g}")
    return failures


def self_test():
    """Exercise both formats and every pass/fail path on synthetic docs."""
    quiet = lambda *_: None  # noqa: E731

    gbench = {
        "context": {"host_name": "ci"},
        "benchmarks": [
            {"name": "BM_FooPacked/64", "GFLOPS": 40.0, "pmu": 1.0,
             "ipc": 2.0},
            {"name": "BM_FooLegacy/64", "GFLOPS": 20.0, "pmu": 1.0,
             "ipc": 1.0},
            {"name": "BM_FooPacked/128", "GFLOPS": 60.0, "pmu": 0.0},
            {"name": "BM_FooLegacy/128", "GFLOPS": 20.0, "pmu": 0.0},
            {"name": "BM_FooPacked/64_mean", "run_type": "aggregate",
             "GFLOPS": 1.0},
        ],
    }
    cur = load_entries(gbench, [])
    assert "BM_FooPacked/64_mean" not in cur, "aggregates must be skipped"

    # Pair mode: median ratio (2.0, 3.0) = 2.5 -> passes 2.0, fails 3.0.
    assert check_pairs(cur, "BM_FooPacked", "BM_FooLegacy", "GFLOPS",
                       2.0, quiet) == []
    assert check_pairs(cur, "BM_FooPacked", "BM_FooLegacy", "GFLOPS",
                       3.0, quiet) != []
    # PMU-only metric pairs only where both sides have pmu=1 (one pair,
    # ratio 2.0).
    assert check_pairs(cur, "BM_FooPacked", "BM_FooLegacy", "ipc",
                       1.5, quiet) == []
    # Unknown metric -> explicit failure, not a silent pass.
    assert check_pairs(cur, "BM_FooPacked", "BM_FooLegacy", "nope",
                       1.0, quiet) != []
    # Per-pair floor: ratios are (2.0, 3.0) — every pair clears 1.5, but
    # the /64 pair falls below 2.5 even though the median (2.5) passes.
    assert check_pairs(cur, "BM_FooPacked", "BM_FooLegacy", "GFLOPS",
                       2.0, quiet, min_each_ratio=1.5) == []
    fails = check_pairs(cur, "BM_FooPacked", "BM_FooLegacy", "GFLOPS",
                        2.5, quiet, min_each_ratio=2.5)
    assert len(fails) == 1 and "per-pair floor" in fails[0], fails

    # Floor mode: median frac of (0.4, 0.5, 0.9) is 0.5 -> passes 0.5,
    # fails 0.55 (one fast shape cannot lift a slow median); a prefix or
    # metric that matches nothing fails instead of passing vacuously.
    fracs = {"BM_Bar/1": {"frac": 0.4}, "BM_Bar/2": {"frac": 0.9},
             "BM_Bar/3": {"frac": 0.5}, "BM_BarOther/1": {"frac": 0.0}}
    assert check_floor(fracs, "BM_Bar/", "frac", 0.5, quiet) == []
    fails = check_floor(fracs, "BM_Bar/", "frac", 0.55, quiet)
    assert len(fails) == 1 and "below floor" in fails[0], fails
    assert check_floor(fracs, "BM_Baz/", "frac", 0.1, quiet) != []
    assert check_floor(fracs, "BM_Bar/", "nope", 0.1, quiet) != []
    assert parse_floor_rule("BM_Bar/:frac:0.5") == ("BM_Bar/", "frac", 0.5)
    # A zero entry fails even when the median clears the floor.
    zeroed = dict(fracs, **{"BM_Bar/4": {"frac": 0.0},
                            "BM_Bar/5": {"frac": 0.6}})
    fails = check_floor(zeroed, "BM_Bar/", "frac", 0.45, quiet)
    assert len(fails) == 1 and "not positive" in fails[0], fails

    # Host binding: a host that breaks a rule gets the floor reported,
    # not enforced, but a missing or zero metric still fails there.
    rules = [parse_host_rule("gemm_kernel=avx512-12x32"),
             parse_host_rule("physical_cores=4"),
             parse_host_rule("l3_bytes=4096")]
    assert rules[2] == ("l3_bytes", "4096"), rules
    calibrated = {"gemm_kernel": "avx512-12x32", "physical_cores": "4",
                  "l3_bytes": "4096"}
    assert host_mismatches(calibrated, rules) == []
    assert load_context({"context": calibrated, "benchmarks": []}) == \
        calibrated
    smt = dict(calibrated, physical_cores="2")
    other_isa = dict(calibrated, gemm_kernel="avx2-6x16")
    small_llc = dict(calibrated, l3_bytes="512")
    for host in (smt, other_isa, small_llc, {}):
        assert len(host_mismatches(host, rules)) >= 1, host
    # google-benchmark writes num_cpus as a JSON int, custom keys as
    # strings; both compare as text.
    assert host_mismatches({"num_cpus": 4}, [("num_cpus", "4")]) == []
    assert check_floor(fracs, "BM_Bar/", "frac", 0.55, quiet,
                       enforce=False) == []
    assert check_floor(zeroed, "BM_Bar/", "frac", 0.1, quiet,
                       enforce=False) != []
    assert check_floor(fracs, "BM_Baz/", "frac", 0.1, quiet,
                       enforce=False) != []
    for bad_rule in ("gemm_kernel", "=x", "l3_bytes="):
        try:
            parse_host_rule(bad_rule)
            raise AssertionError(f"'{bad_rule}' must not parse")
        except ValueError:
            pass

    # Baseline diff: 10% regression passes tol 0.8, fails tol 0.95.
    base = {k: dict(v) for k, v in cur.items()}
    regressed = {k: dict(v) for k, v in cur.items()}
    for v in regressed.values():
        v["GFLOPS"] *= 0.9
    rule = [("GFLOPS", "higher", 0.8)]
    assert check_baseline(regressed, base, rule, False, None, quiet) == []
    rule = [("GFLOPS", "higher", 0.95)]
    assert check_baseline(regressed, base, rule, False, None, quiet) != []
    # "lower" direction: a latency-like metric that grew 10% fails 1.05.
    for v in regressed.values():
        v["latency"] = 1.1
    for v in base.values():
        v["latency"] = 1.0
    assert check_baseline(regressed, base, [("latency", "lower", 1.2)],
                          False, None, quiet) == []
    assert check_baseline(regressed, base, [("latency", "lower", 1.05)],
                          False, None, quiet) != []
    # Coverage: drop an entry, restrict with a filter.
    partial = {k: v for k, v in regressed.items()
               if k != "BM_FooPacked/128"}
    rule = [("GFLOPS", "higher", 0.8)]
    assert check_baseline(partial, base, rule, True, None, quiet) != []
    assert check_baseline(partial, base, rule, True, "/64$", quiet) == []
    # PMU-only metrics skip pmu=0 entries instead of failing them.
    assert check_baseline(regressed, base, [("ipc", "higher", 0.5)],
                          False, None, quiet) == []

    # JsonEmitter format with key fields.
    emitter = {
        "artifact": "pipeline overlap",
        "machine": {"hostname": "ci"},
        "records": [
            {"kind": "overlap", "threads": 1, "async": False,
             "iters_per_second": 10.0},
            {"kind": "overlap", "threads": 1, "async": True,
             "iters_per_second": 12.0},
            {"kind": "overlap_perf", "threads": 1, "async": True,
             "pmu_available": False, "gemm_ipc": 0.0},
        ],
    }
    recs = load_entries(emitter, ["threads", "async"])
    assert "overlap/threads=1/async=True" in recs, sorted(recs)
    base_recs = {k: dict(v) for k, v in recs.items()}
    rule = [("iters_per_second", "higher", 0.5)]
    assert check_baseline(recs, base_recs, rule, True, None, quiet) == []
    # pmu_available=False maps to pmu=0 -> gemm_ipc must be skipped even
    # though the stored value is 0.
    assert check_baseline(recs, base_recs, [("gemm_ipc", "higher", 1.0)],
                          False, "overlap_perf", quiet) != []  # nothing
    # compared -> explicit failure (guards against typo'd metric names)

    bad = {"neither": []}
    try:
        load_entries(bad, [])
        raise AssertionError("unrecognized format must raise")
    except ValueError:
        pass

    print("self-test OK")
    return 0


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("current", nargs="?", help="bench JSON to check")
    ap.add_argument("--baseline", help="committed baseline bench JSON")
    ap.add_argument("--metric", action="append", default=[],
                    metavar="NAME:DIR:TOL",
                    help="baseline rule, DIR in {higher,lower}; e.g. "
                         "GFLOPS:higher:0.5")
    ap.add_argument("--key", default="threads,async",
                    help="comma-separated identity fields for JsonEmitter "
                         "records (default: threads,async)")
    ap.add_argument("--require-coverage", action="store_true",
                    help="fail if a baseline entry is missing from current")
    ap.add_argument("--coverage-filter", metavar="REGEX",
                    help="restrict --require-coverage to matching entries")
    ap.add_argument("--pair", metavar="CUR_PREFIX=REF_PREFIX",
                    help="within-file pair-ratio check, e.g. "
                         "BM_SpmmTiled/=BM_SpmmTiledBest/")
    ap.add_argument("--pair-metric", default="GFLOPS")
    ap.add_argument("--min-pair-ratio", type=float, default=1.2)
    ap.add_argument("--min-each-pair-ratio", type=float, default=None,
                    help="additionally require EVERY pair ratio >= this "
                         "(the median gate tolerates outliers; this "
                         "doesn't)")
    ap.add_argument("--floor", action="append", default=[],
                    metavar="PREFIX:METRIC:MIN",
                    help="require the median METRIC over entries named "
                         "PREFIX* to be >= MIN, e.g. "
                         "BM_GemmPacked:frac_peak:0.39")
    ap.add_argument("--floor-host", action="append", default=[],
                    metavar="KEY=VALUE",
                    help="enforce the --floor rules only on a host whose "
                         "bench JSON context satisfies every rule; "
                         "elsewhere they are reported")
    ap.add_argument("--self-test", action="store_true",
                    help="run the built-in unit tests and exit")
    args = ap.parse_args()

    if args.self_test:
        return self_test()
    if not args.current:
        ap.error("a bench JSON path is required (or --self-test)")
    if not args.baseline and not args.pair and not args.floor:
        ap.error("nothing to check: give --baseline, --pair and/or --floor")

    key_fields = [k for k in args.key.split(",") if k]
    with open(args.current) as f:
        current_doc = json.load(f)
    current = load_entries(current_doc, key_fields)
    failures = []

    if args.pair:
        if "=" not in args.pair:
            ap.error("--pair expects CUR_PREFIX=REF_PREFIX")
        cur_prefix, ref_prefix = args.pair.split("=", 1)
        failures += check_pairs(current, cur_prefix, ref_prefix,
                                args.pair_metric, args.min_pair_ratio,
                                print, args.min_each_pair_ratio)

    broken = host_mismatches(load_context(current_doc),
                             [parse_host_rule(r) for r in args.floor_host])
    if args.floor and broken:
        for b in broken:
            print(f"host differs from the floors' calibration: {b}")
        print("floors below are reported, not enforced")
    for spec in args.floor:
        failures += check_floor(current, *parse_floor_rule(spec), print,
                                enforce=not broken)

    if args.baseline:
        rules = [parse_metric_rule(s) for s in args.metric]
        if not rules and not args.require_coverage:
            ap.error("--baseline needs --metric rules and/or "
                     "--require-coverage")
        baseline = load_file(args.baseline, key_fields)
        failures += check_baseline(current, baseline, rules,
                                   args.require_coverage,
                                   args.coverage_filter, print)

    if failures:
        print(f"\nFAIL ({len(failures)}):", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
