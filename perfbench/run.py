#!/usr/bin/env python3
"""The sbst benchmark: builds perfbench from source and runs one workload.

    python3 perfbench/run.py --workload evaluate|campaign \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Builds perfbench/ (which compiles the repository's libraries from src/)
into .bench_build/ at the checkout root, then runs the perfbench binary with
every SBST_* variable removed from its environment. Its last stdout line is
the result JSON; build output goes to stderr. The exit status is the
binary's: 0 when every output matched its expectation.

--selftest checks the benchmark itself: a corrupted expectation must make
every workload and the traced run fail, and SBST_* variables in the
environment must change neither the printed configuration nor the results.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("evaluate", "campaign")


def clean_env():
    return {k: v for k, v in os.environ.items() if not k.startswith("SBST_")}


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no sbst sources next to perfbench/ "
                 "(expected src/CMakeLists.txt); nothing to build")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    env = clean_env()
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, env=env,
                          stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def perfbench(args, env=None):
    """Runs the perfbench binary; returns (exit status, stdout lines)."""
    proc = subprocess.run([BINARY, "--root", ROOT] + args, cwd=ROOT,
                          env=clean_env() if env is None else env,
                          stdout=subprocess.PIPE, text=True)
    return proc.returncode, proc.stdout.splitlines()


def selftest():
    failures = []

    def expect_failure(name, args):
        status, lines = perfbench(args + ["--corrupt-expectation"])
        result = json.loads(lines[-1]) if lines else {}
        if status == 0 or result.get("correct") is not False:
            failures.append(name + ": a corrupted expectation did not fail")
        else:
            print("selftest: %s fails on a corrupted expectation" % name,
                  file=sys.stderr)

    for w in WORKLOADS:
        expect_failure(w, ["--workload", w, "--seed", "1", "--seconds", "1",
                           "--trace", "0"])
    expect_failure("traced run", ["--workload", "evaluate", "--seed", "1",
                                  "--seconds", "1", "--trace", "1"])

    args = ["--workload", "evaluate", "--seed", "1", "--seconds", "1",
            "--trace", "0"]
    polluted = clean_env()
    polluted.update({
        "SBST_THREADS": "1", "SBST_ENGINE": "reference", "SBST_LANES": "1",
        "SBST_NETLIST_OPT": "0", "SBST_FAULT_MODEL": "transition",
        "SBST_STORE": os.path.join(BUILD, "selftest-store"),
    })
    runs = [perfbench(args), perfbench(args, env=polluted)]
    config = [[l for l in lines if l.startswith("# config:")] for _, lines
              in runs]
    correct = [json.loads(lines[-1])["correct"] if lines else None
               for _, lines in runs]
    if config[0] != config[1] or correct != [True, True] or \
            [s for s, _ in runs] != [0, 0]:
        failures.append("SBST_* variables changed the config or the results")
    else:
        print("selftest: SBST_* variables change neither config nor results",
              file=sys.stderr)

    for f in failures:
        print("selftest: FAILED: " + f, file=sys.stderr)
    return 1 if failures else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1))
    p.add_argument("--selftest", action="store_true")
    a = p.parse_args()
    if not a.selftest and None in (a.workload, a.seed, a.seconds, a.trace):
        p.error("--workload, --seed, --seconds and --trace are required")
    build()
    if a.selftest:
        return selftest()
    status, lines = perfbench(["--workload", a.workload, "--seed", str(a.seed),
                            "--seconds", str(a.seconds),
                            "--trace", str(a.trace)])
    for line in lines:
        print(line)
    return status


if __name__ == "__main__":
    sys.exit(main())
