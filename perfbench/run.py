#!/usr/bin/env python3
"""Build and run one perfbench workload from the root of a checkout.

    python3 perfbench/run.py --workload cve-matrix|relaxed-dfs|svc-waves \\
        --seed N --seconds S --trace 0|1

Builds the C++ benchmark (perfbench/CMakeLists.txt, which compiles the
library sources under src/) into .bench_build/perfbench, then runs it with
.bench_build/perfbench-work as its working directory. The benchmark's
diagnostic lines are passed through; the last stdout line is its JSON result
restricted to the metrics BENCHMARK.json declares for the mode (end_to_end
with --trace 0, per_layer with --trace 1). A per-layer metric of a layer the
workload bypasses reads 0. Build output goes to stderr. Exits 2 on a usage
error and non-zero without a result when the build or the run fails.
"""
import json
import os
import re
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("cve-matrix", "relaxed-dfs", "svc-waves")
USAGE = ("usage: run.py --workload cve-matrix|relaxed-dfs|svc-waves "
         "--seed <n> --seconds <1..600> --trace 0|1")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 175


class UsageError(Exception):
    pass


def _uint(flag, text):
    # Decimal digits only: int() would also take signs, spaces and '_'.
    if not re.fullmatch(r"[0-9]{1,20}", text) or int(text) >= 2**64:
        raise UsageError(f"malformed {flag} '{text}'")
    return int(text)


def parse_args(argv):
    """Strict parse; mirrors perfbench's own parser (cpp/common.cpp)."""
    out = {}
    if len(argv) % 2:
        raise UsageError(f"missing value for {argv[-1]}")
    for flag, value in zip(argv[0::2], argv[1::2]):
        if flag not in ("--workload", "--seed", "--seconds", "--trace"):
            raise UsageError(f"unknown argument '{flag}'")
        name = flag[2:]
        if name in out:
            raise UsageError(f"{flag} given twice")
        if name == "workload":
            if value not in WORKLOADS:
                raise UsageError(f"unknown workload '{value}'")
            out[name] = value
        elif name == "seed":
            out[name] = _uint(flag, value)
        elif name == "seconds":
            seconds = _uint(flag, value)
            if not 1 <= seconds <= 600:
                raise UsageError(f"--seconds must be in 1..600, got '{value}'")
            out[name] = seconds
        else:
            if value not in ("0", "1"):
                raise UsageError(f"--trace must be 0 or 1, got '{value}'")
            out[name] = value
    if len(out) != 4:
        raise UsageError("--workload, --seed, --seconds and --trace are all required")
    return out


def build(root, build_dir):
    """Configure (once) and build the benchmark; returns the binary path."""
    common = {"stdout": sys.stderr, "stderr": sys.stderr, "timeout": BUILD_TIMEOUT_S}
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"], check=True, **common)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "--target", "perfbench",
                    "-j", jobs], check=True, **common)
    return build_dir / "perfbench"


def declared_result(result, declared, trace):
    """The benchmark's result with exactly the declared metrics, in order."""
    metrics = {}
    for m in declared:
        got = result["metrics"].get(m["name"])
        if got is None:
            if trace == "0":
                raise ValueError(f"metric {m['name']} missing")
            got = {"value": 0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            raise ValueError(f"metric {m['name']} has unit {got['unit']}, want {m['unit']}")
        metrics[m["name"]] = got
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main(argv):
    try:
        args = parse_args(argv)
    except UsageError as e:
        print(f"run.py: {e}\n{USAGE}", file=sys.stderr)
        return 2
    root = Path(__file__).resolve().parent.parent
    build_dir = root / ".bench_build" / "perfbench"
    try:
        binary = build(root, build_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    work = root / ".bench_build" / "perfbench-work"
    work.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args["workload"], "--seed", str(args["seed"]),
           "--seconds", str(args["seconds"]), "--trace", args["trace"]]
    try:
        run = subprocess.run(cmd, cwd=work, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 1
    lines = run.stdout.decode().splitlines()
    if run.returncode != 0 or not lines:
        print("\n".join(lines), file=sys.stderr)
        print(f"run.py: benchmark exited with {run.returncode}", file=sys.stderr)
        return 1
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text())
        declared = spec["per_layer" if args["trace"] == "1" else "end_to_end"]
        result = declared_result(json.loads(lines[-1]), declared, args["trace"])
    except (OSError, ValueError, KeyError) as e:
        print("\n".join(lines), file=sys.stderr)
        print(f"run.py: bad benchmark output: {e}", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
