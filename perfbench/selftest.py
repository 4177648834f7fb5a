#!/usr/bin/env python3
"""Self-tests of the benchmark in perfbench/run.py.

    python3 perfbench/selftest.py

1. Smoke: every workload runs untraced on the default seed (checked against
   expected.json) and traced on another seed (the timed copy must reproduce
   the untraced simulation exactly, invariant checkers clean); each prints a
   result line with exactly the metrics BENCHMARK.json names.
2. Planted divergence: a non-default seed compared against the default
   seed's stored values must fail the correctness gate: "correct": false,
   every query failed, exit code 1.
3. Bare directory: a directory holding only BENCHMARK.json and perfbench/
   cannot build, so the benchmark exits non-zero without a result line.

Exits 0 when every test passes.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)

failures = []


def check(ok, what):
    print("%s %s" % ("PASS" if ok else "FAIL", what), flush=True)
    if not ok:
        failures.append(what)


def run(args, cwd=ROOT, run_py=RUN):
    proc = subprocess.run([sys.executable, run_py] + args, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, result


def valid_result(result, section):
    if not isinstance(result, dict):
        return False
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return False
    want = {m["name"]: m["unit"] for m in BENCH[section]}
    got = result["metrics"]
    return (set(got) == set(want) and all(got[n]["unit"] == want[n] for n in want)
            and isinstance(result["attempted"], int) and result["attempted"] >= 1)


def smoke():
    for w in [w["name"] for w in BENCH["workloads"]]:
        for trace, seed in ((0, 1), (1, 2)):
            rc, result = run(["--workload", w, "--seed", str(seed), "--seconds", "0",
                              "--trace", str(trace)])
            section = "per_layer" if trace else "end_to_end"
            check(rc == 0 and valid_result(result, section) and result["correct"]
                  and result["failed"] == 0,
                  "smoke %s trace=%d seed=%d" % (w, trace, seed))


def planted_divergence():
    w = BENCH["workloads"][0]["name"]
    rc, result = run(["--workload", w, "--seed", "2", "--seconds", "0", "--trace", "0",
                      "--compare-default"])
    check(rc == 1 and valid_result(result, "end_to_end") and result["correct"] is False
          and result["failed"] == result["attempted"],
          "gate fires on seed 2 compared with the stored seed-1 results")


def bare_directory():
    bare = os.path.join(ROOT, ".bench_build", "selftest_bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in BENCH["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
    rc, result = run(["--workload", BENCH["workloads"][0]["name"], "--seed", "1",
                      "--seconds", "1", "--trace", "0"], cwd=bare,
                     run_py=os.path.join(bare, "perfbench", "run.py"))
    check(rc != 0 and result is None, "bare directory exits %d without a result" % rc)
    shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    smoke()
    planted_divergence()
    bare_directory()
    print("%d failure(s)" % len(failures))
    sys.exit(1 if failures else 0)
