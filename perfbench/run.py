#!/usr/bin/env python3
"""Astraea benchmark: builds the perfbench binary from source and runs one workload.

Run from the repository root:

  python3 perfbench/run.py --workload sim_mlp --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --workload all --seed 1 --seconds 30
  python3 perfbench/run.py --self-test

Workloads: sim_mlp, sim_cubic, train, serve (see perfbench/README.md); `all`
runs each of them untraced and then as a separate traced run.
--trace 0 measures the end-to-end metrics; --trace 1 runs the traced
(per-layer) measurement. Every run checks the program's outputs. The last
stdout line is one JSON object with the keys correct, attempted, failed and
metrics; the lines before it list every metric the workload defines, by
name and unit, and the run's provenance. The exit code is 0 only when every
output check passed.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
OUT_DIR = ROOT / ".bench_build" / "perfbench-out"
BINARY = BUILD_DIR / "perfbench"
MODEL = "models/astraea_policy_trained.ckpt"
WORKLOADS = ("sim_mlp", "sim_cubic", "train", "serve")

# The end-to-end metrics each workload defines, beyond BENCHMARK.json's
# cross-workload set. A metric appears only where it means something.
SIMS = ("sim_mlp", "sim_cubic")
DEFINED_ON = {
    "setup_s": WORKLOADS,
    "fail_pct": WORKLOADS,
    "peak_rss_mb": WORKLOADS,
    "wall_us_per_op": WORKLOADS,
    "wall_s_per_flow_s": SIMS,
    "jain": SIMS,
    "utilization": SIMS,
    "rtt_p95_ms": SIMS,
    "env_steps_per_s": ("train",),
    "decisions_per_s": ("serve",),
    "decision_p50_us": ("serve",),
    "decision_p90_us": ("serve",),
}
# Sample counts, reported alongside the metrics.
COUNTS = {"reps", "requests"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no Astraea sources under {ROOT / 'src'}; run from a full checkout")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log_path = BUILD_DIR / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "perfbench", "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                tail = log_path.read_text().splitlines()[-20:]
                fail("build failed:\n" + "\n".join(tail))


def provenance_extra():
    """Git SHA when the checkout is a git repository, and a digest of the sources."""
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], check=True,
                                 capture_output=True, text=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "bench/harness", "perfbench", MODEL):
        base = ROOT / top
        files = sorted(base.rglob("*")) if base.is_dir() else [base]
        for path in files:
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return {"git_sha": sha, "source_sha256": digest.hexdigest()}


def run_binary(workload, seed, seconds, trace, tiny=False, model=MODEL):
    """Runs the binary; returns (exit code, parsed result or None)."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--model", model,
           "--out-dir", str(OUT_DIR.relative_to(ROOT))]
    if tiny:
        cmd.append("--tiny")
    # A run measures for `seconds`, then finishes the rep or pair in flight.
    timeout_s = 2 * seconds + 60
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=timeout_s)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {timeout_s:g} s (2 x --seconds + 60)")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result


def gated_metrics(trace):
    """The metric names BENCHMARK.json lists for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def report(workload, seed, seconds, trace, code, result):
    """Prints every metric and the provenance, then the result line."""
    if result is None:
        fail(f"{workload} printed no result (exit {code})")
    metrics = result["metrics"]
    provenance = dict(result["provenance"], **provenance_extra())
    print(f"perfbench {workload} seed={seed} seconds={seconds} trace={trace}")
    for name, metric in sorted(metrics.items()):
        print(f"  {name:28s} {metric['value']!s:>24} {metric['unit']}")
    for check in result["checks"]:
        if not check["ok"]:
            print(f"  CHECK FAILED: {check['name']}: {check['detail']}")
    print("provenance " + json.dumps(provenance, sort_keys=True))

    record_dir = OUT_DIR / "results"
    record_dir.mkdir(parents=True, exist_ok=True)
    record = dict(result, provenance=provenance)
    name = f"{workload}-seed{seed}-trace{trace}.json"
    (record_dir / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    correct = bool(result["correct"]) and code == 0
    final = {}
    for name in gated_metrics(trace):
        metric = metrics.get(name)
        if metric is None or metric["value"] is None or not math.isfinite(metric["value"]):
            correct = False
            print(f"  missing or non-finite metric: {name}")
            continue
        final[name] = {"value": metric["value"], "unit": metric["unit"]}
    print(json.dumps({"correct": correct, "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]), "metrics": final}))
    return 0 if correct else 1


def self_test():
    """Runs every workload at a tiny length on two seeds, in both modes."""
    problems = []
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for workload in WORKLOADS:
        for seed in (1, 2):
            for trace in (0, 1):
                tag = f"{workload} seed={seed} trace={trace}"
                before = len(problems)
                code, result = run_binary(workload, seed, 1, trace, tiny=True)
                if result is None or code != 0 or not result["correct"]:
                    bad = [c for c in (result or {}).get("checks", []) if not c["ok"]]
                    problems.append(f"{tag}: output checks failed (exit {code}): {bad}")
                    continue
                metrics = result["metrics"]
                for name, metric in metrics.items():
                    if metric["value"] is None or not math.isfinite(metric["value"]):
                        problems.append(f"{tag}: {name} is not finite")
                    if name in units and metric["unit"] != units[name]:
                        problems.append(f"{tag}: {name} has unit {metric['unit']}, "
                                        f"BENCHMARK.json says {units[name]}")
                expected = set(gated_metrics(trace))
                if not trace:
                    expected |= {n for n, on in DEFINED_ON.items() if workload in on}
                present = set(metrics) - COUNTS
                if present != expected:
                    problems.append(f"{tag}: metrics differ from the definition: missing "
                                    f"{sorted(expected - present)}, extra "
                                    f"{sorted(present - expected)}")
                if trace:
                    names = [c["name"] for c in result["checks"]]
                    if not any("self times add up" in n for n in names):
                        problems.append(f"{tag}: no self-time check ran")
                    calls = metrics["nn.infer_calls"]["value"]
                    if (workload == "sim_mlp") != (calls > 0):
                        problems.append(f"{tag}: nn.infer_calls is {calls}")
                print(f"self-test {tag}: {'ok' if len(problems) == before else 'FAILED'}")
    for workload in ("sim_mlp", "serve"):
        code, result = run_binary(workload, 1, 1, 0, tiny=True, model="models/missing.ckpt")
        if code == 0 or result is not None:
            problems.append(f"{workload}: ran without its checkpoint (exit {code})")
    for problem in problems:
        print("SELF-TEST FAILED: " + problem)
    print("self-test " + ("passed" if not problems else "failed"))
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    build()
    if args.self_test:
        return self_test()
    if args.workload != "all":
        code, result = run_binary(args.workload, args.seed, args.seconds, args.trace)
        return report(args.workload, args.seed, args.seconds, args.trace, code, result)
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, result = run_binary(workload, args.seed, args.seconds, trace)
            status |= report(workload, args.seed, args.seconds, trace, code, result)
    return status


if __name__ == "__main__":
    sys.exit(main())
