#!/usr/bin/env python3
"""Self-test of the benchmark on a tiny federation (a few seconds).

    python3 perfbench/selftest.py

For every workload: two runs on one seed must print the same run
fingerprint and identical exact metrics, a run on another seed must
print a different fingerprint, and run.py must print every metric named
in BENCHMARK.json, with its unit, in both the untraced and the traced
mode. Exits non-zero on the first failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import run  # noqa: E402


def fail(msg):
    print("selftest: FAIL: " + msg, file=sys.stderr)
    sys.exit(1)


def run_once(binary, workload, seed):
    r = run.run_binary(binary, workload, seed, 1.0, False, True)
    if r["returncode"] != 0:
        fail("%s seed %d: roads_perfbench exited %d: %s"
             % (workload, seed, r["returncode"], r["failures"]))
    return r


def entry_point(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        fail("run.py %s trace=%d exited %d:\n%s"
             % (workload, trace, proc.returncode, proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    bench = run.spec()
    binary = run.build()
    for w in (x["name"] for x in bench["workloads"]):
        a, b, other = run_once(binary, w, 1), run_once(binary, w, 1), \
            run_once(binary, w, 2)
        if a["fingerprint"] != b["fingerprint"]:
            fail("%s: fingerprint differs between runs of one seed" % w)
        exact = {k: v["value"] for k, v in a["metrics"].items() if v["exact"]}
        if not exact:
            fail("%s: no exact metrics reported" % w)
        for k, v in exact.items():
            if b["metrics"][k]["value"] != v:
                fail("%s: exact metric %s differs between runs of one seed"
                     % (w, k))
        if other["fingerprint"] == a["fingerprint"]:
            fail("%s: seeds 1 and 2 give the same fingerprint" % w)

        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            out = entry_point(w, trace)
            if set(out) != {"correct", "attempted", "failed", "metrics"}:
                fail("%s: result keys %s" % (w, sorted(out)))
            if not out["correct"] or out["attempted"] < 1:
                fail("%s trace=%d: correct=%s attempted=%s"
                     % (w, trace, out["correct"], out["attempted"]))
            for m in bench[key]:
                got = out["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    fail("%s trace=%d: metric %s missing or wrong unit (%s)"
                         % (w, trace, m["name"], got))
            if trace == 0:
                zero = [k for k, v in out["metrics"].items()
                        if v["value"] == 0]
                if zero:
                    fail("%s: end-to-end metrics read 0: %s" % (w, zero))
        print("selftest: %s ok (fingerprint %s)" % (w, a["fingerprint"]))
    print("selftest: all workloads ok")


if __name__ == "__main__":
    main()
