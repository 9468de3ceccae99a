#!/usr/bin/env python3
"""Smoke self-test of the benchmark itself.

    python3 perfbench/selftest.py

Run from the root of a checkout. For every workload it makes one short
end-to-end run and one short traced run, and checks that the result line
carries every metric BENCHMARK.json lists for that mode, each with its
unit, and that no reply was wrong. Then it corrupts one reply (through
--inject-bad-reply) and checks that the run counts it in
ops_failed and reports itself incorrect. Exits non-zero on any failure.
"""
import json
import os
import subprocess
import sys

ROOT = os.getcwd()
SECONDS = 2


def run(workload, trace, extra=()):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", str(SECONDS), "--trace",
           str(trace), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise AssertionError("%s exited %d: %s" % (
            " ".join(cmd), proc.returncode, proc.stderr[-2000:]))
    return json.loads(lines[-1])


def check_metrics(result, wanted, label):
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys %s" % sorted(result))
    if not result.get("correct"):
        problems.append("run reported incorrect replies")
    if result.get("attempted", 0) < 1:
        problems.append("nothing attempted")
    got = result.get("metrics", {})
    for m in wanted:
        entry = got.get(m["name"])
        if entry is None:
            problems.append("missing metric " + m["name"])
        elif entry.get("unit") != m["unit"] or not isinstance(
                entry.get("value"), (int, float)):
            problems.append("bad entry for %s: %s" % (m["name"], entry))
    extra = set(got) - {m["name"] for m in wanted}
    if extra:
        problems.append("unlisted metrics %s" % sorted(extra))
    for p in problems:
        print("FAIL %s: %s" % (label, p))
    return not problems


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ok = True
    for w in bench["workloads"]:
        name = w["name"]
        ok &= check_metrics(run(name, 0), bench["end_to_end"],
                            name + " trace=0")
        ok &= check_metrics(run(name, 1), bench["per_layer"],
                            name + " trace=1")
        print("checked", name, flush=True)

    bad = run("session-churn", 0, ["--inject-bad-reply", "0"])
    if bad["failed"] < 1 or bad["correct"]:
        print("FAIL injected bad reply was not counted: failed=%s correct=%s"
              % (bad["failed"], bad["correct"]))
        ok = False
    else:
        print("checked injected bad reply: failed=%d" % bad["failed"])
    print("selftest", "passed" if ok else "FAILED")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
