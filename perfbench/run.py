#!/usr/bin/env python3
"""Build and run the end-to-end benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload contest_tat --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root.  The benchmark binary is built from source
into .bench_build/ (Release), then run; its last stdout line is the result
JSON.  Build output goes to stderr.  The exit code is non-zero when the
build fails, the configuration is refused, or any output check fails.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench_e2e")
WORKLOADS = ("contest_tat", "eco_sweep")

def build():
    """Configure (once) and build the benchmark binary; False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        print("run.py: no CMakeLists.txt at the repository root; nothing to build",
              file=sys.stderr)
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4", "--target", "perfbench_e2e"])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            print("run.py: build step failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def git_sha():
    """HEAD of the checkout, or a content hash of the sources outside git."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    with open(os.path.join(ROOT, "CMakeLists.txt"), "rb") as f:
        digest.update(f.read())
    return "src-" + digest.hexdigest()[:16]


def run_binary(argv, env=None, capture=False):
    return subprocess.run([BINARY] + argv, cwd=ROOT, env=env, text=True,
                          capture_output=capture)


# ------------------------------------------------------------ self-test
def _result(proc):
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def _input_hash(proc):
    for line in proc.stdout.splitlines():
        if line.startswith("# stamp "):
            return json.loads(line[len("# stamp "):])["input_hash"]
    return None


def self_test():
    """Tiny-size runs of each workload that check the benchmark itself."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    # Every workload reports every metric of its kind.
    wanted = {trace: sorted(m["name"] for m in spec[kind])
              for trace, kind in ((0, "end_to_end"), (1, "per_layer"))}
    failures = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    check(run_binary(["--check-spans"], capture=True).returncode == 0,
          "spans: coverage of a well-nested log; escaping/overlapping spans rejected")
    for w in WORKLOADS:
        base = ["--workload", w, "--seconds", "1", "--tiny"]
        hashes = {}
        names = {}
        for seed in (1, 2):
            for trace in (0, 1):
                if seed == 2 and trace == 1:
                    continue
                proc = run_binary(base + ["--seed", str(seed), "--trace", str(trace)],
                                  capture=True)
                res = _result(proc)
                tag = "%s seed %d trace %d" % (w, seed, trace)
                check(proc.returncode == 0 and res is not None and res["correct"]
                      and res["failed"] == 0 and res["attempted"] > 0,
                      tag + ": runs clean")
                if res is None:
                    continue
                metrics = res["metrics"]
                check(sorted(metrics) == wanted[trace],
                      tag + ": emits exactly the BENCHMARK.json metrics of its kind")
                check(all(m.get("unit") == units.get(n) for n, m in metrics.items()),
                      tag + ": every unit matches BENCHMARK.json")
                check(all(isinstance(m.get("value"), (int, float))
                          for m in metrics.values()),
                      tag + ": every value is a number")
                if not trace:
                    check(all(isinstance(m.get("value"), (int, float)) and m["value"] > 0
                              for m in metrics.values()),
                          tag + ": every end-to-end value is above 0")
                if trace:
                    cov = metrics.get("trace.coverage", {}).get("value", 0)
                    check(0 < cov <= 1, tag + ": trace.coverage in (0, 1]")
                names[(seed, trace)] = sorted(metrics)
                hashes[(seed, trace)] = _input_hash(proc)
        check(hashes.get((1, 0)) is not None and hashes.get((1, 0)) != hashes.get((2, 0)),
              w + ": seeds 1 and 2 give different inputs")
        check(names.get((1, 0)) == names.get((2, 0)), w + ": seeds 1 and 2 give the same metric names")
        proc = run_binary(base + ["--seed", "1", "--trace", "0", "--perturb"], capture=True)
        res = _result(proc)
        check(proc.returncode != 0 and res is not None and not res["correct"]
              and res["failed"] >= 1, w + ": a perturbed reference value fails the check")
    env = dict(os.environ, LMMIR_THREADS="1")
    proc = run_binary(["--workload", "eco_sweep", "--seed", "1", "--seconds", "1",
                       "--trace", "0", "--tiny"], env=env, capture=True)
    check(proc.returncode != 0 and _result(proc) is None,
          "an LMMIR_* variable in the environment is refused")
    print("self-test: %s" % ("FAILED (%d)" % len(failures) if failures else "passed"))
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ("all",),
                    help="one workload, or both in turn")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink the workload to finish in seconds")
    ap.add_argument("--perturb", action="store_true",
                    help="perturb one reference value (the check must fail)")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    if not build():
        return 2
    if args.self_test:
        return self_test()
    argv = ["--seed", str(args.seed), "--seconds", repr(args.seconds),
            "--trace", str(args.trace), "--git-sha", git_sha()]
    if args.tiny:
        argv.append("--tiny")
    if args.perturb:
        argv.append("--perturb")
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    failed = 0
    for w in workloads:
        sys.stdout.flush()
        failed |= run_binary(["--workload", w] + argv).returncode != 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
