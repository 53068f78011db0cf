#!/usr/bin/env python3
"""Builds the benchmark runner from source and runs one workload.

    python3 perfbench/run.py --workload repro|aging_fleet|auth_verify \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  The library and perfbench/src are built in
Release under .bench_build/ (or $CARGO_TARGET_DIR) with the repository's own
CMake files; the first run builds, later runs reuse the build.  The runner's
report is printed, then, as the last line, one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.

Exits 2 without a result when the checkout has no library sources, 3 when the
build fails, 4 when the runner fails.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("repro", "aging_fleet", "auth_verify")
# The program's env-gated telemetry and tuning knobs (the runner clears them
# too; clearing here keeps them away from the build as well).
CLEARED_ENV = (
    "AROPUF_TRACE", "AROPUF_PROF", "AROPUF_PROF_RESOURCE", "AROPUF_PROF_INTERVAL_MS",
    "AROPUF_MANIFEST", "AROPUF_LOG", "AROPUF_LOG_FORMAT", "ARO_CSV_DIR",
    "AROPUF_THREADS", "AROPUF_KERNEL",
)
RUNNER_TIMEOUT_S = 170


def fail(code, message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "aropuf-perfbench")


def build(env):
    """Configures (first time) and builds the runner; returns its path."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", ROOT, "-B", out, "-DCMAKE_BUILD_TYPE=Release",
                     "-DCMAKE_PROJECT_aropuf_INCLUDE=" + os.path.join(BENCH_DIR, "attach.cmake")]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        run_build_step(configure, env)
    run_build_step(["cmake", "--build", out, "--target", "perfbench_runner",
                    "-j", str(os.cpu_count() or 1)], env)
    return os.path.join(out, "perfbench", "perfbench_runner")


def run_build_step(cmd, env):
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:])
        fail(3, "build step failed: " + " ".join(cmd))


def cache_value(key):
    path = os.path.join(build_dir(), "CMakeCache.txt")
    with open(path, encoding="utf-8", errors="replace") as f:
        for line in f:
            if line.startswith(key + ":"):
                return line.split("=", 1)[1].strip()
    return ""


def source_provenance():
    """Git commit when the checkout is a repository, and always a digest of
    the sources the runner is built from."""
    commit = "none (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, check=False)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            paths += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for path in paths:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return commit, digest.hexdigest()[:16]


def metric_names(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return [m["name"] for m in json.load(f)[kind]]


def summarize(report, args):
    info = report.get("info", {})
    prov = info.get("provenance", {})
    print(f"perfbench {args.workload}: seed {args.seed}, {args.seconds:g} s, trace {args.trace}, "
          f"{prov.get('threads')} threads of {prov.get('nproc')}, "
          f"delay backend {prov.get('delay_backend')}, build {prov.get('build_type')}, "
          f"host steal {100 * info.get('host_steal_frac', 0):.1f} %")
    for failure in report.get("failures", []):
        print("  FAILED: " + failure)
    for name, value in sorted(info.get("headline", {}).items()):
        print(f"  {name}: {value:.4g}")
    if "paper_dev_pct" in info:
        print(f"  largest deviation from the paper: {info['paper_dev_pct']:.4g} %")
    if "op_latency_samples" in info:
        print(f"  {info['op_latency_samples']} operation latency samples at N threads, "
              f"tail at p{info['op_tail_percentile']:g}")
    auth = info.get("auth")
    if auth:
        caches = prov.get("caches", {})
        print(f"  FAR {auth['false_accepts']}/{auth['impostors']} impostors, "
              f"FRR {auth['false_rejects']}/{auth['genuine']} genuine; "
              f"{auth['latency_samples']} latency samples, "
              f"{auth['samples_beyond_tail']} beyond the tail percentile")
        print(f"  store {auth['store_bytes'] / 2**20:.1f} MiB against "
              f"{caches.get('l2_bytes_total', 0) / 2**20:.0f} MiB total L2 and "
              f"{caches.get('l3_bytes', 0) / 2**20:.0f} MiB L3")
    for name, m in sorted(report.get("metrics", {}).items()):
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2014)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    parser.add_argument("--inject", default="", help="break one expectation (self-test)")
    args = parser.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail(2, f"no library sources in {ROOT} (expected CMakeLists.txt and src/)")

    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    runner = build(env)
    commit, source_digest = source_provenance()

    out_dir = os.path.join(build_dir(), "runs", args.workload)
    os.makedirs(out_dir, exist_ok=True)
    cmd = [runner, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out-dir", out_dir]
    if args.tiny:
        cmd.append("--tiny")
    if args.inject:
        cmd += ["--inject", args.inject]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUNNER_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(4, f"runner did not finish within {RUNNER_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(4, f"runner exited with {proc.returncode}")
    report = json.loads(lines[-1])
    prov = report["info"]["provenance"]
    prov["git_commit"] = commit
    prov["source_digest"] = source_digest
    prov["cxx_compiler"] = cache_value("CMAKE_CXX_COMPILER")
    prov["cmake_build_type"] = cache_value("CMAKE_BUILD_TYPE")

    summarize(report, args)
    print("report " + json.dumps(report, sort_keys=True))

    kind = "per_layer" if args.trace else "end_to_end"
    wanted = metric_names(kind)
    metrics = {n: report["metrics"][n] for n in wanted if n in report["metrics"]}
    # A run whose checks failed may lack metrics (a non-Release build times
    # nothing) and still reports its failures; any other run has them all.
    if len(metrics) != len(wanted) and report["failed"] == 0:
        missing = sorted(set(wanted) - set(metrics))
        fail(4, f"runner did not report {kind} metrics " + ", ".join(missing))
    print(json.dumps({"correct": bool(report["correct"]), "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
