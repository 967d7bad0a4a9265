#!/usr/bin/env python3
"""ROADS benchmark entry point.

    python3 perfbench/run.py --workload query|churn|serve --seed N \
        --seconds S --trace 0|1

Builds the benchmark binary (perfbench/CMakeLists.txt, Release) into
.bench_build/perfbench under the checkout root, then runs it:

  --trace 0  one untraced process; prints the end-to-end metrics.
  --trace 1  one untraced and one traced process on the same inputs
             (their exact metrics and fingerprints must agree); prints
             the per-layer metrics and the tracing overhead. The
             benchmark's own spans are written to
             .bench_build/perfbench/spans/.

The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is non-zero when an
output check fails or the build cannot run. See perfbench/NOTES.md.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Wall budget for the benchmark processes of one run, after the build.
RUN_BUDGET_S = 170.0


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds roads_perfbench; returns its path."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    logfile = os.path.join(out, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target",
                  "roads_perfbench"])
    with open(logfile, "w") as lf:
        for cmd in steps:
            if subprocess.call(cmd, stdout=lf, stderr=subprocess.STDOUT) != 0:
                with open(logfile) as f:
                    log(f.read()[-4000:])
                raise SystemExit("perfbench: build failed (see %s)" % logfile)
    return os.path.join(out, "roads_perfbench")


def run_binary(binary, workload, seed, seconds, trace, tiny, spans_out=None,
               deadline=None):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "1" if trace else "0"]
    if tiny:
        cmd.append("--tiny")
    if spans_out:
        cmd += ["--spans-out", spans_out]
    timeout = None if deadline is None else max(1.0, deadline - time.time())
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=timeout)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit("perfbench: roads_perfbench printed no result (exit %d)"
                         % proc.returncode)
    result = json.loads(lines[-1])
    result["returncode"] = proc.returncode
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small federation (self-test only)")
    args = ap.parse_args()

    bench = spec()
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        raise SystemExit("perfbench: unknown workload %r (have %s)"
                         % (args.workload, ", ".join(names)))
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]

    t0 = time.time()
    binary = build()
    log("perfbench: build ready in %.1fs" % (time.time() - t0))

    deadline = time.time() + RUN_BUDGET_S
    first = run_binary(binary, args.workload, args.seed, args.seconds, False,
                       args.tiny, deadline=deadline)
    failures = list(first["failures"])
    if first["returncode"] != 0 and not failures:
        failures.append("roads_perfbench exited %d" % first["returncode"])
    source = first
    if args.trace:
        spans_dir = os.path.join(build_dir(), "spans")
        os.makedirs(spans_dir, exist_ok=True)
        spans_out = os.path.join(
            spans_dir, "%s_seed%d.json" % (args.workload, args.seed))
        traced = run_binary(binary, args.workload, args.seed, args.seconds,
                            True, args.tiny, spans_out, deadline)
        failures += traced["failures"]
        # Determinism: the traced process replays the same inputs, so its
        # exact metrics and per-query fingerprint must match.
        if traced["fingerprint"] != first["fingerprint"]:
            failures.append("traced run fingerprint differs from untraced")
        for name, m in first["metrics"].items():
            if m["exact"] and traced["metrics"][name]["value"] != m["value"]:
                failures.append("exact metric %s differs in the traced run"
                                % name)
        traced["metrics"]["bench.trace_overhead_frac"] = {
            "value": traced["timed_wall_s"] / first["timed_wall_s"] - 1.0,
            "unit": "ratio", "exact": False}
        source = traced
        log("perfbench: spans written to %s" % spans_out)

    metrics = {}
    for m in wanted:
        name = m["name"]
        got = source["metrics"].get(name)
        if got is None:
            failures.append("metric %s not reported" % name)
            continue
        if got["unit"] != m["unit"]:
            failures.append("metric %s unit %s, expected %s"
                            % (name, got["unit"], m["unit"]))
        metrics[name] = {"value": got["value"], "unit": m["unit"]}

    host = first["host"]
    log("perfbench: host nproc=%s compiler=%s build=%s lto=%s seed=%d"
        % (host["nproc"], host["compiler"], host["build_type"], host["lto"],
           args.seed))
    log("perfbench: workload=%s fingerprint=%s"
        % (args.workload, first["fingerprint"]))
    for name, m in metrics.items():
        print("%-40s %16.6f %s" % (name, m["value"], m["unit"]))
    for f in failures:
        log("perfbench: CHECK FAILED: %s" % f)

    out = {
        "correct": not failures,
        "attempted": source["attempted"],
        "failed": source["failed"],
        "metrics": metrics,
    }
    print(json.dumps(out))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
