#!/usr/bin/env python3
"""Host-speed benchmark of the PCMap simulator.

Builds hostbench/ (which compiles ../src) into .bench_build/hostbench,
then runs one workload from hostbench/workloads.json:

    python3 hostbench/run.py --workload paper --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones (see README.md).

Maintenance: ``--write-digests FIRST-LAST`` recomputes the stored
simulated digests (hostbench/digests.txt) for that seed range.  Do it
only for a change that is meant to alter simulated results.

Run it from the repository root.  Everything it writes stays under
.bench_build/.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "hostbench")
BINARY = os.path.join(BUILD, "pcmap-hostbench")
WORKLOADS = os.path.join(HERE, "workloads.json")
DIGESTS = os.path.join(HERE, "digests.txt")
BUILD_TYPE = "RelWithDebInfo"

# Every run must end within this many seconds; the first run in a
# checkout also builds and gets the longer limit.
RUN_LIMIT_S = 175
FIRST_RUN_LIMIT_S = 880


def log(msg):
    print(f"hostbench: {msg}", file=sys.stderr, flush=True)


def build(deadline):
    """Configure (once) and build; returns False on any failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("simulator sources (src/) not found next to hostbench/")
        return False
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, env=env, stdout=sys.stderr,
                                  stderr=sys.stderr,
                                  timeout=max(1, deadline - time.time()))
        except subprocess.TimeoutExpired:
            log("build timed out")
            return False
        except OSError as err:
            log(f"cannot run {cmd[0]}: {err}")
            return False
        if done.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return os.path.isfile(BINARY)


def workload_sweep(name):
    with open(WORKLOADS) as f:
        spec = json.load(f)
    if name not in spec["workloads"]:
        known = ", ".join(sorted(spec["workloads"]))
        raise SystemExit(f"hostbench: unknown workload '{name}' "
                         f"(known: {known})")
    return spec["workloads"][name]["sweep"]


def run_binary(args, deadline):
    """Run the benchmark binary; returns (returncode, stdout)."""
    try:
        done = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=max(1, deadline - time.time()))
    except subprocess.TimeoutExpired:
        log("benchmark run timed out")
        return 1, ""
    return done.returncode, done.stdout


def check_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return (isinstance(result, dict)
            and set(result) == {"correct", "attempted", "failed",
                                "metrics"}
            and isinstance(result["attempted"], int)
            and result["attempted"] >= 1)


def write_digests(seed_range, deadline):
    first, _, last = seed_range.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    with open(WORKLOADS) as f:
        names = sorted(json.load(f)["workloads"])
    lines = ["# workload seed point-index digest",
             "# Written by: python3 hostbench/run.py --write-digests "
             f"{seed_range}"]
    for name in names:
        for seed in seeds:
            code, out = run_binary(
                ["--workload", name, "--seed", str(seed),
                 "--seconds", "1", "--trace", "0", "--emit-digests",
                 "--"] + workload_sweep(name), deadline)
            if code != 0:
                log(f"digest run failed for {name} seed {seed}")
                return 1
            lines.extend(out.strip().splitlines())
    with open(DIGESTS, "w") as f:
        f.write("\n".join(lines) + "\n")
    log(f"wrote {len(lines) - 2} digests to {DIGESTS}")
    return 0


def main():
    start = time.time()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--write-digests", metavar="FIRST-LAST")
    opts = parser.parse_args()

    first_build = not os.path.isfile(BINARY)
    limit = FIRST_RUN_LIMIT_S if first_build else RUN_LIMIT_S
    if opts.write_digests:
        limit = 24 * 3600
    deadline = start + limit
    if not build(deadline):
        return 1

    if opts.write_digests:
        return write_digests(opts.write_digests, deadline)
    if not opts.workload:
        parser.error("--workload is required")
    seed = opts.seed
    if seed is None:
        with open(WORKLOADS) as f:
            seed = json.load(f)["default_seed"]
    if seed < 0:
        parser.error("--seed must be non-negative")

    code, out = run_binary(
        ["--workload", opts.workload, "--seed", str(seed),
         "--seconds", str(opts.seconds), "--trace", opts.trace,
         "--digests", DIGESTS, "--"] + workload_sweep(opts.workload),
        deadline)
    lines = out.strip().splitlines()
    if code != 0 or not lines or not check_result(lines[-1]):
        sys.stderr.write(out)
        log(f"benchmark binary failed (exit {code})")
        return 1
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
