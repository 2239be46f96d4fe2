#!/usr/bin/env python3
"""End-to-end benchmark of gsgcn: sampled GCN training and open-loop serving.

Builds benchmark/ (which builds the library from the repository root like
the tier-1 default) into build/benchmark/, runs every (workload, mode) pair
in its own process and checks the outputs. Workloads, metrics, directions
and bounds live in BENCHMARK.json at the repository root.

  python3 benchmark/run.py --seed 42 [--out results.json]   # full run
  python3 benchmark/run.py --compare A.json B.json          # regression check
  python3 benchmark/run.py --smoke                          # wiring check
  python3 benchmark/run.py --workload train-wide --seed 1 --seconds 20 --trace 0

The last form runs one workload once and prints one JSON object as its last
line: {"correct", "attempted", "failed", "metrics"}, with the end-to-end
metrics for --trace 0 and the per-layer metrics for --trace 1.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / "build" / "benchmark"
WORK = BUILD / "run"
BINARY = BUILD / "gsgcn_bench"
RUN_TIMEOUT_S = 170  # one workload process; a run must end within 180 s
REPEATS = 5          # end-to-end processes per workload in a full run

KINDS = {"train-wide": "train", "train-deep": "train", "train-ooc": "train",
         "serve-open": "serve"}

# Each end-to-end metric is defined on every workload through the
# workload's unit of work: the workload's own metric it is taken from.
E2E_SOURCES = {
    "setup_s": {"train": "setup_s", "serve": "setup_s"},
    "throughput_per_s": {"train": "iters_per_s", "serve": "requests_per_s"},
    "latency_ms": {"train": "ms_per_iteration", "serve": "p50_ms_high"},
    "peak_rss_mb": {"train": "peak_rss_mb", "serve": "peak_rss_mb"},
}

# A change smaller than this, in the metric's unit, is never better or
# worse, whatever its share: set-up times are milliseconds, where scheduler
# jitter alone is a large share.
ABS_FLOOR = {"setup_s": 0.020}


class BenchError(Exception):
    pass


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


# --------------------------------------------------------------------------
# Build
# --------------------------------------------------------------------------

def read_cache(name):
    for line in (BUILD / "CMakeCache.txt").read_text().splitlines():
        if line.startswith(name + ":"):
            return line.split("=", 1)[1]
    return ""


def build():
    """Configure (once) and build; returns the build provenance."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"library sources not found under {ROOT}")
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    with open(log, "w") as out:
        if not (BUILD / "CMakeCache.txt").is_file():
            if subprocess.run(["cmake", "-S", str(ROOT / "benchmark"), "-B",
                               str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
                              stdout=out, stderr=subprocess.STDOUT).returncode:
                raise BenchError(f"cmake configure failed; see {log}")
        jobs = str(min(4, os.cpu_count() or 1))
        if subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                          stdout=out, stderr=subprocess.STDOUT).returncode:
            raise BenchError(f"build failed; see {log}")
    build_type = read_cache("CMAKE_BUILD_TYPE")
    obs = read_cache("GSGCN_OBS")
    if build_type != "Release" or obs.upper() in ("ON", "1", "TRUE", "YES"):
        raise BenchError(f"refusing a {build_type or 'default'} build with "
                         f"GSGCN_OBS={obs}: only the tier-1 default "
                         "(Release, GSGCN_OBS=OFF) is measured")
    return {"build_type": build_type, "gsgcn_obs": obs or "OFF",
            "compile_flags": library_flags(), "git_sha": git_sha()}


def library_flags():
    """Compile flags of one library source, from compile_commands.json."""
    try:
        entries = json.loads((BUILD / "compile_commands.json").read_text())
    except (OSError, ValueError):
        return ""
    for e in entries:
        if e.get("file", "").endswith("src/gcn/trainer.cpp"):
            return " ".join(a for a in e.get("command", "").split()
                            if a.startswith(("-O", "-m", "-D", "-std", "-f")))
    return ""


def git_sha():
    try:
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


# --------------------------------------------------------------------------
# Running one workload process
# --------------------------------------------------------------------------

def run_binary(workload, seed, seconds, mode, smoke=False, extra=()):
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--mode", mode, "--workdir", str(WORK)]
    if smoke:
        cmd.append("--smoke")
    cmd += list(extra)
    try:
        r = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} {mode}: timed out after {RUN_TIMEOUT_S} s")
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        raise BenchError(f"{workload} {mode}: exit {r.returncode}: "
                         f"{r.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def value(doc, name):
    m = doc["metrics"].get(name)
    return None if m is None else m["value"]


def e2e_result(workload, seed, seconds, units, smoke=False, extra=()):
    """One end-to-end process, with the BENCHMARK.json metrics (`units`:
    name -> unit) derived from the workload's own."""
    doc = run_binary(workload, seed, seconds, "e2e", smoke, extra)
    kind = KINDS[workload]
    for name, unit in units.items():
        doc["metrics"][name] = {"value": value(doc, E2E_SOURCES[name][kind]),
                                "unit": unit}
    return doc


def layer_result(workload, seed, seconds, smoke=False):
    """The per-layer pair: untraced reference half, then traced half, each
    in a fresh process so no per-shape state leaks from one to the other."""
    ref = run_binary(workload, seed, seconds, "reference", smoke)
    doc = run_binary(workload, seed, seconds, "traced", smoke)
    fidelity = ref["series"]["epoch_loss"] == doc["series"]["epoch_loss"]
    doc["metrics"]["trace_fidelity"] = {"value": 1.0 if fidelity else 0.0,
                                        "unit": "ratio"}
    doc["metrics"]["trace_overhead"] = {
        "value": value(doc, "iters_per_s") / value(ref, "iters_per_s"),
        "unit": "ratio"}
    doc["correct"] = doc["correct"] and ref["correct"]
    doc["attempted"] += ref["attempted"]
    doc["failed"] += ref["failed"]
    doc["checks"]["reference_losses_finite"] = ref["checks"]["losses_finite"]
    return doc


def select(doc, metrics):
    """The one-run result object restricted to `metrics` (name -> unit)."""
    out = {}
    for name, unit in metrics.items():
        v = value(doc, name)
        if v is None or not math.isfinite(v):
            raise BenchError(f"{doc['workload']}: metric {name} missing or "
                             f"not finite ({v})")
        out[name] = {"value": v, "unit": unit}
    return {"correct": bool(doc["correct"]), "attempted": int(doc["attempted"]),
            "failed": int(doc["failed"]), "metrics": out}


def metric_units(spec, group):
    return {m["name"]: m["unit"] for m in spec[group]}


# --------------------------------------------------------------------------
# Modes
# --------------------------------------------------------------------------

def one_run_mode(args, spec):
    if args.workload not in KINDS:
        raise BenchError(f"unknown workload {args.workload}")
    build()
    if args.trace:
        doc = layer_result(args.workload, args.seed, args.seconds)
        result = select(doc, metric_units(spec, "per_layer"))
    else:
        units = metric_units(spec, "end_to_end")
        doc = e2e_result(args.workload, args.seed, args.seconds, units)
        result = select(doc, units)
    print(json.dumps(result))
    return 0


def summarize(docs, units):
    """Median, spread and raw values over the repeats. The spread is the
    distance between the first and third quartile as a share of the
    median; with a handful of repeats the inclusive quartiles are used,
    so a single outlying repeat does not set it."""
    out = {}
    for name, unit in units.items():
        vals = [value(d, name) for d in docs]
        vals = [v for v in vals if v is not None and math.isfinite(v)]
        if not vals:
            out[name] = {"value": None, "unit": unit, "spread": None,
                         "values": []}
            continue
        med = statistics.median(vals)
        spread = None
        if len(vals) > 1 and med:
            q = statistics.quantiles(vals, n=4, method="inclusive")
            spread = (q[2] - q[0]) / abs(med)
        out[name] = {"value": med, "unit": unit, "spread": spread,
                     "values": vals}
    return out


def native_units(docs):
    units = {}
    for d in docs:
        for k, m in d["metrics"].items():
            if m.get("unit"):
                units.setdefault(k, m["unit"])
    return units


def full_mode(args, spec):
    t_start = time.time()
    provenance = build()
    e2e_units = metric_units(spec, "end_to_end")
    layer_units = metric_units(spec, "per_layer")
    report = {"seed": args.seed, "seconds": args.seconds,
              "repeats": REPEATS, "provenance": provenance,
              "workloads": {}}
    ok = True
    for w in [x["name"] for x in spec["workloads"]]:
        docs = [e2e_result(w, args.seed, args.seconds, e2e_units)
                for _ in range(REPEATS)]
        # max_rps is a diagnostic bisection (25-50 s of extra load) in a
        # process of its own, so it reaches none of the repeats' metrics.
        probes = ([run_binary(w, args.seed, args.seconds, "e2e",
                              extra=["--max-rps"])]
                  if KINDS[w] == "serve" else [])
        layers = layer_result(w, args.seed, args.seconds)
        native = summarize(docs, native_units(docs))
        if probes:
            native.update(summarize(probes, {"max_rps": "1/s"}))
        layer_native = summarize([layers], native_units([layers]))
        for name in list(layer_native):
            if name in layer_units:
                del layer_native[name]
        every = docs + probes + [layers]
        checks = {}
        for d in every:
            for k, passed in d["checks"].items():
                checks[k] = checks.get(k, True) and passed
        entry = {
            "end_to_end": summarize(docs, e2e_units),
            "per_layer": summarize([layers], layer_units),
            "native": native,
            "per_layer_native": layer_native,
            "checks": checks,
            "correct": all(d["correct"] for d in every),
            "attempted": sum(d["attempted"] for d in every),
            "failed": sum(d["failed"] for d in every),
            "info": docs[0]["info"],
        }
        report["workloads"][w] = entry
        report.setdefault("machine_info", docs[0].get("machine_info"))
        ok = ok and entry["correct"]
        print_workload(w, entry)
    report["wall_s"] = time.time() - t_start
    print(f"\nwall {report['wall_s']:.0f} s; all checks "
          f"{'passed' if ok else 'FAILED'}")
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0 if ok else 1


def print_workload(w, entry):
    print(f"\n== {w} (correct={entry['correct']}, attempted="
          f"{entry['attempted']}, failed={entry['failed']})")
    for k, ok in sorted(entry["checks"].items()):
        print(f"   check {k:34s} {'ok' if ok else 'FAILED'}")
    for group in ("end_to_end", "native", "per_layer", "per_layer_native"):
        for name, m in sorted(entry[group].items()):
            v = m["value"]
            shown = "n/a" if v is None else f"{v:.6g}"
            spread = "" if not m["spread"] else f"  spread {m['spread']:.3f}"
            print(f"   {group:10s} {name:32s} {shown:>12s} {m['unit']}{spread}")


def compare_mode(args, spec):
    a = json.loads(Path(args.compare[0]).read_text())
    b = json.loads(Path(args.compare[1]).read_text())
    metrics = spec["end_to_end"]
    print(f"{'workload':12s} " + " ".join(f"{m['name']:>18s}" for m in metrics))
    worse = False
    for w in [x["name"] for x in spec["workloads"]]:
        marks = []
        for m in metrics:
            ma = a["workloads"][w]["end_to_end"][m["name"]]
            mb = b["workloads"][w]["end_to_end"][m["name"]]
            marks.append(judge(ma, mb, m))
        worse = worse or "worse" in marks
        print(f"{w:12s} " + " ".join(f"{x:>18s}" for x in marks))
    return 1 if worse else 0


def judge(ma, mb, m):
    """better / same / worse by the metric's bound and direction, or
    unresolved when either side's own spread is wider than the bound. A
    change within the metric's absolute floor is the same."""
    va, vb = ma["value"], mb["value"]
    if va is None or vb is None or va == 0:
        return "unresolved"
    if abs(vb - va) <= ABS_FLOOR.get(m["name"], 0.0):
        return "same"
    spread = max(ma.get("spread") or 0.0, mb.get("spread") or 0.0)
    if spread > m["bound"]:
        return "unresolved"
    change = (vb - va) / abs(va)
    if m["better"] == "higher":
        change = -change
    if change > m["bound"]:
        return "worse"
    if change < -m["bound"]:
        return "better"
    return "same"


def smoke_mode(args, spec):
    build()
    t0 = time.time()
    e2e_units = metric_units(spec, "end_to_end")
    layer_units = metric_units(spec, "per_layer")
    for w in [x["name"] for x in spec["workloads"]]:
        for units, doc in ((e2e_units, e2e_result(w, 1, 1, e2e_units, True)),
                           (layer_units, layer_result(w, 1, 1, True))):
            result = select(doc, units)  # raises on a missing/non-finite one
            if not result["correct"]:
                raise BenchError(f"{w}: smoke checks failed: {doc['checks']}")
            for name, m in result["metrics"].items():
                if not m["unit"]:
                    raise BenchError(f"{w}: metric {name} has no unit")
        print(f"smoke {w}: ok")
    elapsed = time.time() - t0
    print(f"smoke: every BENCHMARK.json metric emitted, finite and with its "
          f"unit on every workload ({elapsed:.1f} s)")
    return 0 if elapsed < 30 else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args()
    try:
        spec = load_spec()
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        if args.compare:
            return compare_mode(args, spec)
        if args.smoke:
            return smoke_mode(args, spec)
        if args.workload:
            return one_run_mode(args, spec)
        return full_mode(args, spec)
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
