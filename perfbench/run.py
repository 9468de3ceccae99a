#!/usr/bin/env python3
"""Build and run the libsuu repository benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds libsuu, suu_serve and the
suu_perfbench benchmark binary from source with CMake (Release) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, then runs the
binary. Build output goes to stderr; the binary's last stdout line is the
result object. Traced runs (--trace 1) write their Chrome trace and
per-layer summary under .bench_out/. See perfbench/README.md.
"""
import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ("sem-estimate", "session-churn", "dag-cold-solve")
RUN_TIMEOUT_S = 175


def build(root, build_dir):
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        sys.exit("perfbench: no libsuu sources (CMakeLists.txt, src/) in "
                 + root)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", "4", "--target", "suu_perfbench",
         "suu_serve"],
        check=True, stdout=sys.stderr)


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1,
                    help="workload seed (default 1; 7919 is held out for "
                         "validating later claims)")
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject-bad-reply", type=int, default=-1,
                    help="corrupt the reply of this completed request "
                         "(self-test of the reply checks)")
    args = ap.parse_args()

    root = os.getcwd()
    build_dir = os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    try:
        build(root, build_dir)
    except (subprocess.CalledProcessError, OSError) as err:
        sys.exit("perfbench: build failed: %s" % err)

    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "suu_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--serve-bin", os.path.join(build_dir, "suu", "suu_serve"),
           "--out-dir", out_dir]
    if args.inject_bad_reply >= 0:
        cmd += ["--inject-bad-reply", str(args.inject_bad_reply)]
    # Own process group, so a run that overstays takes its daemon with it.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
