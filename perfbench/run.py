#!/usr/bin/env python3
"""Builds and runs Ringo's end-to-end benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload analyst_session --seed 1 \
        --seconds 15 --trace 0

Workloads: analyst_session, serve_readwrite, stream_ingest. The seed
defaults to 1; the same seed gives the same inputs. The benchmark binary is
built from source, with the project's default build type, into the
directory named by CARGO_TARGET_DIR (default .bench_build, relative to the
repository root). Files a run writes go under <build dir>/work.

Each run prints a header (nproc, build type, compiler, OMP_*/RINGO_*
variables found in the environment, seed, git commit) and, as its last
line, one JSON object with the keys correct, attempted, failed and metrics.
The metrics are the ones BENCHMARK.json lists: its end_to_end metrics with
--trace 0, its per_layer metrics with --trace 1 (a layer the workload
leaves idle reads 0). The exit code is non-zero when the build fails, an
operation returns a wrong answer, the program fails, or the binary and
BENCHMARK.json disagree on a metric's name or unit.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("analyst_session", "serve_readwrite", "stream_ingest")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_JOBS = 4


def build(build_dir):
    """Configures and builds the benchmark; returns the binary's path."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: the Ringo sources (src/) are missing")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", str(BUILD_JOBS),
                    "--target", "ringo_perfbench"],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "ringo_perfbench")


def metric_specs(trace):
    """The metrics BENCHMARK.json lists for the mode, as {name: unit}."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def select_metrics(result, trace):
    """Keeps the metrics listed for the mode; exits on any disagreement.

    Every end-to-end metric must be reported. A per-layer metric a workload
    does not report belongs to a layer it leaves idle and reads 0. A
    reported name that BENCHMARK.json does not list, or a unit that differs
    from the listed one, ends the run.
    """
    wanted = metric_specs(trace)
    known = {**metric_specs(not trace), **wanted}
    got = result["metrics"]
    for name, m in got.items():
        if name not in known:
            sys.exit(f"perfbench: metric {name} is not in BENCHMARK.json")
        if m["unit"] != known[name]:
            sys.exit(f"perfbench: {name} is in {m['unit']}, "
                     f"BENCHMARK.json says {known[name]}")
    out = {}
    for name, unit in wanted.items():
        if name in got:
            out[name] = got[name]
        elif trace:
            out[name] = {"value": 0, "unit": unit}
        else:
            sys.exit(f"perfbench: the workload did not report {name}")
    result["metrics"] = out
    return result


def cache_value(build_dir, key):
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown (not a git checkout)"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject-fault", action="store_true",
                    help="corrupt one program answer before it is checked, "
                         "to show that the checks catch it")
    args = ap.parse_args()

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"perfbench: build failed: {e}")

    env_vars = sorted(f"{k}={v}" for k, v in os.environ.items()
                      if k.startswith(("OMP_", "RINGO_")))
    compiler = cache_value(build_dir, "CMAKE_CXX_COMPILER")
    try:
        compiler = subprocess.run([compiler, "--version"], capture_output=True,
                                  text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        pass
    print(f"# nproc: {os.cpu_count()}")
    print(f"# build_type: {cache_value(build_dir, 'CMAKE_BUILD_TYPE')}")
    print(f"# compiler: {compiler}")
    print(f"# env: {' '.join(env_vars) if env_vars else '(no OMP_*/RINGO_*)'}")
    print(f"# workload: {args.workload} seed: {args.seed} "
          f"seconds: {args.seconds} trace: {args.trace}")
    print(f"# commit: {git_commit()}", flush=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", os.path.join(build_dir, "work")]
    if args.inject_fault:
        cmd.append("--inject-fault")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if not lines or not lines[-1].startswith("{"):
        # The program stopped before its result line.
        if lines:
            print(lines[-1])
        return proc.returncode or 1
    print(json.dumps(select_metrics(json.loads(lines[-1]), args.trace)))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
