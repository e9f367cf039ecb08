#!/usr/bin/env python3
"""End-to-end benchmark of resnet18_graph() on the temporal MC-IPU datapath.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repo root.  Builds perfbench/ (its own CMake package over the
repo's src/) into .bench_build/, runs the self-tests, then runs the workload
in a process of its own and prints, as the last stdout line, one JSON object
with the keys correct / attempted / failed / metrics.  --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer metrics of a traced run (its
spans are written to .bench_build/traces/).

The run is refused (exit 1, no result) when its kernel backend differs from
the one expected.json pins: timings of different backends do not compare.
On the default seed the output digests must equal expected.json's;
--write-expected records them instead.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = ".bench_build"
EXPECTED = os.path.join(HERE, "expected.json")
WORKLOADS = (
    "resnet18-int8-64x64-mt",
    "serve-resnet18-fp16-16x16-zipf",
)
RESULT_KEYS = ("correct", "attempted", "failed", "metrics")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd))


def clean_env():
    env = dict(os.environ)
    # One fixed configuration: no kernel-backend override, no fault plan.
    env.pop("MPIPU_KERNEL", None)
    env.pop("MPIPU_FAULT", None)
    return env


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--write-expected", action="store_true",
                    help="record this run's digests as the expected ones")
    args = ap.parse_args()

    if not os.path.isdir(os.path.join(HERE, "..", "src")):
        fail("the repo sources (src/) are missing beside perfbench/")
    build()
    env = clean_env()
    selftest = subprocess.run([os.path.join(BUILD, "perfbench_selftest")],
                              capture_output=True, text=True, env=env,
                              timeout=120)
    if selftest.returncode:
        sys.stderr.write(selftest.stdout + selftest.stderr)
        fail("self-tests failed")

    trace_dir = os.path.join(BUILD, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--trace-out",
           os.path.join(trace_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          timeout=170)
    lines = proc.stdout.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    sys.stderr.write(proc.stderr)
    try:
        res = json.loads(lines[-1])
    except (ValueError, IndexError):
        fail("no result line (exit %d)" % proc.returncode)
    if proc.returncode == 3 or not res.get("valid", False):
        fail("invalid run: the load generator ran late")

    with open(EXPECTED) as f:
        expected = json.load(f)
    ctx = res["context"]
    if ctx["kernel_backend"] != expected["kernel_backend"]:
        fail("kernel backend %s differs from the pinned %s; runs would not "
             "compare" % (ctx["kernel_backend"], expected["kernel_backend"]))

    correct = bool(res["correct"]) and proc.returncode == 0
    failed = int(res["failed"])
    if args.write_expected:
        expected["workloads"][args.workload] = res["checks"]
        with open(EXPECTED, "w") as f:
            json.dump(expected, f, indent=2, sort_keys=True)
            f.write("\n")
    elif args.seed == expected["default_seed"]:
        want = expected["workloads"].get(args.workload)
        if want != res["checks"]:
            print("digest mismatch: expected %s, got %s" % (want, res["checks"]))
            correct = False
            failed += 1

    # The metric set must be the one BENCHMARK.json declares for this mode.
    declared = os.path.join(HERE, "..", "BENCHMARK.json")
    if os.path.exists(declared):
        with open(declared) as f:
            bench = json.load(f)
        names = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]
        if sorted(names) != sorted(res["metrics"]):
            fail("metrics differ from BENCHMARK.json: %s"
                 % sorted(set(names) ^ set(res["metrics"])))

    print("context: " + json.dumps(ctx, sort_keys=True))
    out = {"correct": correct, "attempted": int(res["attempted"]),
           "failed": failed, "metrics": res["metrics"]}
    assert tuple(out) == RESULT_KEYS
    print(json.dumps(out))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
