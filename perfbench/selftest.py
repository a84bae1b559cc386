"""Self-test of the benchmark: tiny smoke runs of every workload.

    python3 perfbench/selftest.py

For each workload it runs `run.py --smoke` untraced and traced, and checks
that the result line has exactly the metric names and units that
BENCHMARK.json lists, that every untraced value is a positive number, that
the outputs passed the gate (one-ulp negative control included), and that
the traced `.calls` counts repeat exactly across two traced runs of the run
mixes. It also checks that a copy holding only BENCHMARK.json and perfbench/
exits non-zero without printing a result. Takes about two minutes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace, cwd=ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def result(done):
    if done.returncode != 0:
        raise AssertionError(f"exit code {done.returncode}: {done.stderr[-2000:]}")
    res = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}, res.keys()
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1, res
    return res


def check_units(res, listed):
    want = {m["name"]: m["unit"] for m in listed}
    got = {name: m["unit"] for name, m in res["metrics"].items()}
    assert got == want, f"names/units differ: {set(got) ^ set(want)}"


def main() -> int:
    for w in (w["name"] for w in SPEC["workloads"]):
        res = result(bench(w, 0))
        check_units(res, SPEC["end_to_end"])
        bad = {k: m["value"] for k, m in res["metrics"].items()
               if not isinstance(m["value"], (int, float)) or m["value"] <= 0}
        assert not bad, f"{w}: non-positive end-to-end values {bad}"

        traced = result(bench(w, 1))
        check_units(traced, SPEC["per_layer"])
        if w != "closed_form_verify":  # its traced pass takes a minute; see README.md
            again = result(bench(w, 1))
            calls = {k: m["value"] for k, m in traced["metrics"].items() if k.endswith(".calls")}
            calls2 = {k: m["value"] for k, m in again["metrics"].items() if k.endswith(".calls")}
            assert calls == calls2, f"{w}: .calls differ between traced runs"
        print(f"ok {w}")

    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = bench(SPEC["workloads"][0]["name"], 0, cwd=bare)
    shutil.rmtree(bare)
    assert done.returncode != 0 and not done.stdout.strip(), "bare copy printed a result"
    print("ok bare copy fails without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
