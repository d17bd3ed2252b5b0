"""Self-test of the benchmark: python3 bench/selftest.py (about three minutes).

A short smoke run of every workload must print exactly the end-to-end
metrics of BENCHMARK.json, with their units, and pass its checks. Two
traced runs at one seed must print exactly the per-layer metrics and agree
on every count. Run outside a source tree, the benchmark must fail without
printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 7


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    return proc


def result(proc):
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(doc) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"result keys {sorted(doc)}")
    if not doc["correct"] or doc["failed"] or doc["attempted"] < 1:
        raise AssertionError(f"checks failed: {proc.stdout[-2000:]}")
    return doc["metrics"]


def same_metrics(metrics, spec):
    printed = {name: m["unit"] for name, m in metrics.items()}
    wanted = {m["name"]: m["unit"] for m in spec}
    if printed != wanted:
        missing = sorted(set(wanted) - set(printed))
        extra = sorted(set(printed) - set(wanted))
        raise AssertionError(f"metrics differ: missing {missing}, extra {extra}, "
                             f"or units differ")
    for name, m in metrics.items():
        if not isinstance(m["value"], (int, float)):
            raise AssertionError(f"{name} is not a number")


def counts(metrics):
    return {name: m["value"] for name, m in metrics.items()
            if name.endswith("_calls") or name.startswith("classify.verdict_")
            or name in ("classify.calls", "classify.unverified_essential",
                        "oracle.points_checked")}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failed = 0

    def check(label, fn):
        nonlocal failed
        try:
            fn()
            print(f"PASS {label}", flush=True)
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {label}: {exc}", flush=True)

    for workload in (w["name"] for w in spec["workloads"]):
        check(f"{workload} smoke run prints every end-to-end metric",
              lambda: same_metrics(result(bench("--workload", workload, "--seed", str(SEED),
                                                "--seconds", "2", "--trace", "0")),
                                   spec["end_to_end"]))

        def traced_twice():
            runs = [result(bench("--workload", workload, "--seed", str(SEED),
                                 "--seconds", "2", "--trace", "1")) for _ in range(2)]
            for metrics in runs:
                same_metrics(metrics, spec["per_layer"])
            first, second = (counts(m) for m in runs)
            diff = {k: (first[k], second[k]) for k in first if first[k] != second[k]}
            if diff:
                raise AssertionError(f"counts differ between traced runs: {diff}")
        check(f"{workload} traced runs print every per-layer metric, counts repeat",
              traced_twice)

    def refuses_without_source():
        bare = ROOT / ".bench_out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(ROOT / "bench", bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = bench("--workload", "cli", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=bare)
        finally:
            shutil.rmtree(bare)
        if proc.returncode == 0 or proc.stdout.strip():
            raise AssertionError("ran without a source tree")
    check("fails without a source tree", refuses_without_source)

    print(f"{failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
