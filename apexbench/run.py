#!/usr/bin/env python3
"""Entry point of the APEX benchmark.

    python3 apexbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Builds the benchmark harness
(apexbench/apexbench.exe) and the `apex` CLI with dune, then runs one
workload and passes its output through: progress and per-pair rows,
then, as the last line, one JSON object with "correct", "attempted",
"failed" and "metrics".  Scratch files go under .apexbench/ in the
checkout.  See apexbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("cold-suite", "pe-generate", "serve-mixed")
HARNESS = os.path.join("_build", "default", "apexbench", "apexbench.exe")
APEX = os.path.join("_build", "default", "bin", "apex_cli.exe")
# one run must end well inside 180 s; the measured window itself is --seconds
RUN_TIMEOUT_S = 170


def fail(msg):
    print("apexbench: " + msg, file=sys.stderr)
    sys.exit(2)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    # the program is built from the checkout's sources
    for path in ("dune-project", "lib", "bin", "apexbench/dune"):
        if not os.path.exists(path):
            fail("no APEX source tree here (missing %s); run from the root of a checkout" % path)
    if shutil.which("dune") is None:
        fail("dune is not on PATH")

    # the program's own settings must not leak in; the dune cache lives
    # outside the checkout, so it stays off
    env = {k: v for k, v in os.environ.items() if not k.startswith("APEX_")}
    env["DUNE_CACHE"] = "disabled"
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./apexbench/apexbench.exe", "./bin/apex_cli.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if build.returncode != 0:
        fail("build failed")

    workdir = os.path.join(".apexbench", args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    env["APEX_CACHE_DIR"] = os.path.join(workdir, "store")
    cmd = [os.path.join(".", HARNESS),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, "--apex", os.path.join(".", APEX)]
    # own process group, so a timeout also stops the serve daemon
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("workload timed out after %d s" % RUN_TIMEOUT_S)
    finally:
        # reap anything left in the harness's group (it stops the daemon
        # itself on every normal path)
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        shutil.rmtree(os.path.join(workdir, "store"), ignore_errors=True)
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(out)
        fail("workload failed (exit %d)" % proc.returncode)
    print("\n".join(lines[:-1]))
    print_table(json.loads(lines[-1]))
    print(lines[-1])


def print_table(result):
    """Every reported metric with its unit and better direction."""
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
        better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    except (OSError, ValueError, KeyError):
        better = {}
    print("correct=%s attempted=%d failed=%d" % (
        result["correct"], result["attempted"], result["failed"]))
    for name, m in result["metrics"].items():
        print("  %-28s %16.6g %-12s %s is better" % (
            name, m["value"], m["unit"], better.get(name, "?")))


if __name__ == "__main__":
    main()
