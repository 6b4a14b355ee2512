#!/usr/bin/env python3
"""Repository benchmark: build the simulator from source, run one workload,
check its outputs, and print one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, default seeds

Run from the repository root. The build goes to .bench_build/perfbench (a
Release build of ../src plus the program in perfbench/bench). --trace 0
reports the end-to-end metrics, --trace 1 the per-layer metrics plus a
Chrome trace in .bench_build/. The last stdout line is the JSON result;
everything above it is the human-readable report. Exit status is non-zero
when the build fails, the build is a sanitizer build, or the correctness
gate fails (the result line then says "correct": false).
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ["storm-cold32", "fleet-10k", "tiers-churn"]
# Default seed per workload; layer_map.json also names the held-out seed.
DEFAULT_SEEDS = {"storm-cold32": 1, "fleet-10k": 42, "tiers-churn": 42}
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure and build; returns the build directory's CMake cache."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("perfbench: no simulator sources at src/ - nothing to build")
        return None
    cache = BUILD / "CMakeCache.txt"
    steps = []
    if not cache.is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if r.returncode != 0:
            log(r.stdout[-4000:])
            log("perfbench: build failed: " + " ".join(cmd))
            return None
    entries = {}
    for line in cache.read_text().splitlines():
        if ":" in line and "=" in line and not line.startswith(("//", "#")):
            key, _, value = line.partition("=")
            entries[key.split(":")[0]] = value
    return entries


def selftest_once():
    """Run the benchmark's own checks once per fresh build."""
    binary = BUILD / "perfbench_selftest"
    marker = BUILD / "selftest.ok"
    if marker.is_file() and marker.stat().st_mtime >= binary.stat().st_mtime:
        return True
    # A new build may change the program's outputs on purpose: the digest
    # check compares runs of one build.
    (BUILD / "digests.json").unlink(missing_ok=True)
    r = subprocess.run([str(binary)], cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.STDOUT, text=True,
                       timeout=RUN_TIMEOUT_S)
    log(r.stdout.strip())
    if r.returncode != 0:
        return False
    marker.write_text("ok\n")
    return True


def host_stamp(cache):
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], stdout=subprocess.PIPE,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    flags = " ".join(v for k, v in cache.items() if k.startswith("CMAKE_CXX_FLAGS"))
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "compiler": version,
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "sanitizers": "-fsanitize" in flags or cache.get("VMIC_SANITIZE") == "ON",
    }


def check_digest(report):
    """The metrics snapshot of one (workload, seed) must never change
    between runs of one build, traced or not."""
    path = BUILD / "digests.json"
    seen = json.loads(path.read_text()) if path.is_file() else {}
    key = "%s:%d" % (report["workload"], report["seed"])
    if key in seen and seen[key] != report["digest"]:
        return "metrics digest %s differs from an earlier run's %s" % (
            report["digest"], seen[key])
    seen[key] = report["digest"]
    path.write_text(json.dumps(seen, indent=1, sort_keys=True) + "\n")
    return None


def run_one(workload, seed, seconds, trace, expected):
    trace_out = BUILD.parent / ("trace-%s-%d.json" % (workload, seed))
    cmd = [str(BUILD / "perfbench"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--trace-out", str(trace_out) if trace else ""]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: %s timed out after %d s" % (workload, RUN_TIMEOUT_S))
        return None
    lines = r.stdout.strip().splitlines()
    if not lines:
        log("perfbench: %s printed no report (exit %d)" % (workload, r.returncode))
        return None
    report = json.loads(lines[-1])
    errors = list(report["gate_errors"])
    if r.returncode != 0 and not errors:
        errors.append("perfbench exited %d" % r.returncode)
    err = check_digest(report)
    if err:
        errors.append(err)
    missing = sorted(set(expected) - set(report["metrics"]))
    if missing:
        errors.append("metrics missing from the report: " + ", ".join(missing))
    report["gate_errors"] = errors

    print("== %s seed %d (%s) ==" % (workload, seed, "traced" if trace else "untraced"))
    print("  attempted %d, failed %d, correctness gate %s" % (
        report["attempted"], report["failed"], "FAILED" if errors else "ok"))
    for e in errors:
        print("  gate: " + e)
    sim = report.get("sim", report["metrics"])
    for name in ("deploy_p50_s", "deploy_tail_s", "storage_mib"):
        m = sim[name]
        extra = ""
        if "percentile" in m:
            extra = "  (p%s, n=%d)" % (format(m["percentile"], "g"), m["n"])
        elif "n" in m:
            extra = "  (n=%d)" % m["n"]
        print("  %-30s %14.6f %-8s%s" % (name, m["value"], m["unit"], extra))
    na = report.get("na", {})
    for name, m in report["metrics"].items():
        if name in ("deploy_p50_s", "deploy_tail_s", "storage_mib"):
            continue
        note = ""
        if "reps" in m:
            note = "  (median of %d: %s)" % (
                m["reps"], " ".join("%.4g" % x for x in m["each"]))
        if name in na:
            note = "  n/a: " + na[name]
        elif name.endswith(".est_share"):
            note = "  (outside estimate, not an in-program profile)"
        print("  %-30s %14.6f %-8s%s" % (name, m["value"], m["unit"], note))
    if trace:
        print("  span trace: %s" % trace_out.relative_to(ROOT))
    return report


def load_benchmark_spec():
    """End-to-end and per-layer metric names from BENCHMARK.json, checked
    against the program's catalog and the layer map."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = [m["name"] for m in spec["end_to_end"]]
    layer = [m["name"] for m in spec["per_layer"]]
    listing = subprocess.run([str(BUILD / "perfbench"), "--list"],
                             stdout=subprocess.PIPE, text=True).stdout.split("\n")
    catalog = [l.split()[1] for l in listing if l.startswith("per_layer ")]
    mapped = {m for row in json.loads((HERE / "layer_map.json").read_text())["layers"]
              for m in row["metrics"]}
    errors = []
    if layer != catalog:
        errors.append("BENCHMARK.json per_layer differs from perfbench --list")
    unmapped = set(catalog) - mapped - {"bench.trace_overhead_s"}
    if unmapped:
        errors.append("layer_map.json lacks " + ", ".join(sorted(unmapped)))
    return e2e, layer, errors


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, help="a workload name, or all")
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.workload != "all" and args.workload not in WORKLOADS:
        log("perfbench: unknown workload %r (have %s)" % (
            args.workload, ", ".join(WORKLOADS)))
        return 2

    cache = build()
    if cache is None:
        return 1
    stamp = host_stamp(cache)
    print("host: nproc=%s cpu=%r compiler=%r build=%s sanitizers=%s" % (
        stamp["nproc"], stamp["cpu"], stamp["compiler"], stamp["build_type"],
        "on" if stamp["sanitizers"] else "off"))
    print("  wall-clock numbers hold for this host only; sim outcomes hold everywhere")
    if stamp["sanitizers"] or stamp["build_type"] not in ("Release", "RelWithDebInfo"):
        log("perfbench: refusing to time a sanitizer or unoptimised build")
        return 1
    if not selftest_once():
        log("perfbench: self-test failed")
        return 1

    e2e_names, layer_names, errors = load_benchmark_spec()
    if errors:
        log("perfbench: " + "; ".join(errors))
        return 1
    names = layer_names if args.trace else e2e_names
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in workloads:
        seed = args.seed if args.seed is not None else DEFAULT_SEEDS[w]
        report = run_one(w, seed, args.seconds, args.trace, names)
        if report is None:
            return 1
        result["correct"] &= not report["gate_errors"]
        result["attempted"] += report["attempted"]
        result["failed"] += report["failed"]
        prefix = w + "." if len(workloads) > 1 else ""
        for name in names:
            m = report["metrics"].get(name, {"value": 0, "unit": ""})
            result["metrics"][prefix + name] = {"value": m["value"], "unit": m["unit"]}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
