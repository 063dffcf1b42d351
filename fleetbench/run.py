#!/usr/bin/env python3
"""Fleet-driver benchmark entry point.

Run one measurement (builds the driver first if needed):

    python3 fleetbench/run.py --workload fedbuff-train --seed 7 --seconds 20 --trace 0

Run the fidelity test (driver vs FlSimulator::run() on a reduced config):

    python3 fleetbench/run.py selftest

Compare two saved sets of results (stdout of earlier runs, concatenated):

    python3 fleetbench/run.py compare parent.txt change.txt

The build goes to .bench_build/fleetbench at the repository root; traced
runs write Chrome trace-event JSON to .bench_build/traces/.  The last line
of a measurement's stdout is its JSON result.
"""

import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "fleetbench")
TRACES = os.path.join(ROOT, ".bench_build", "traces")
BINARY = os.path.join(BUILD, "fleetbench")
RUN_TIMEOUT_S = 170
# Host-stamp fields that must match before two results are compared.
STAMP_KEYS = ("nproc", "cpu", "compiler", "build_type")


def fail(msg):
    print("fleetbench: " + msg, file=sys.stderr)
    sys.exit(1)


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            return "git-" + out.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "fleetbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:12]


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "sim", "fl_simulator.cpp")):
        fail("papaya sources (src/) not found next to fleetbench/; nothing to build")
    if not shutil.which("cmake"):
        fail("cmake not found")
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")


def measure(argv):
    args = dict(zip(argv[0::2], argv[1::2]))
    if len(argv) % 2 or not {"--workload", "--seed", "--seconds", "--trace"} <= args.keys():
        fail("usage: run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>")
    build()
    os.makedirs(TRACES, exist_ok=True)
    trace_out = os.path.join(TRACES, args["--workload"] + ".json")
    cmd = [BINARY] + argv + ["--trace-out", trace_out, "--source-id", source_id()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    out = proc.stdout.decode()
    sys.stdout.write(out)
    sys.stdout.flush()
    if proc.returncode != 0:
        sys.exit(proc.returncode)
    last = out.strip().splitlines()[-1] if out.strip() else ""
    try:
        result = json.loads(last)
    except ValueError:
        fail("no JSON result on the last line")
    if not result.get("correct", False) or result.get("failed", 1) != 0:
        sys.exit(1)


def selftest():
    build()
    sys.exit(subprocess.run([os.path.join(BUILD, "fleetbench_fidelity")],
                            timeout=RUN_TIMEOUT_S).returncode)


def load_results(path):
    """Returns (stamp, {workload: {metric: [values]}}) from saved output."""
    stamp, results, workload = None, {}, None
    with open(path) as f:
        for line in f:
            if line.startswith("repro:"):
                words = line.split()
                workload = words[words.index("--workload") + 1]
            elif line.startswith("host:"):
                host = json.loads(line[len("host:"):])
                this = {k: host.get(k) for k in STAMP_KEYS}
                if stamp is not None and this != stamp:
                    fail("%s mixes results from different hosts" % path)
                stamp = this
            elif line.startswith("{") and workload is not None:
                for name, m in json.loads(line)["metrics"].items():
                    results.setdefault(workload, {}).setdefault(name, []).append(m["value"])
    if stamp is None:
        fail("%s holds no host stamp" % path)
    return stamp, results


def compare(base_path, change_path):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base_stamp, base = load_results(base_path)
    change_stamp, change = load_results(change_path)
    if base_stamp != change_stamp:
        fail("host stamps differ, refusing to compare:\n  %s\n  %s"
             % (base_stamp, change_stamp))
    worse = False
    print("%-15s %-32s %14s %14s %9s" % ("workload", "metric", "base", "change", "delta"))
    for workload in sorted(set(base) & set(change)):
        for name in sorted(set(base[workload]) & set(change[workload])):
            b = statistics.median(base[workload][name])
            c = statistics.median(change[workload][name])
            delta = (c - b) / b if b else 0.0
            m = metrics.get(name, {})
            flag = ""
            if "bound" in m:
                regress = delta if m["better"] == "lower" else -delta
                if regress > m["bound"]:
                    flag, worse = "WORSE", True
            print("%-15s %-32s %14.6g %14.6g %+8.1f%% %s"
                  % (workload, name, b, c, 100 * delta, flag))
    sys.exit(1 if worse else 0)


def main(argv):
    if argv[:1] == ["selftest"]:
        selftest()
    elif argv[:1] == ["compare"] and len(argv) == 3:
        compare(argv[1], argv[2])
    else:
        measure(argv)


if __name__ == "__main__":
    main(sys.argv[1:])
