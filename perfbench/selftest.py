"""Self-test of the benchmark at tiny sizes (about half a minute).

    python3 perfbench/selftest.py

For each workload it generates a reference from the current sources, then
checks that an untraced run emits every end-to-end metric of BENCHMARK.json
and a traced run every per-layer metric, each with its unit and with every
check passing; that a deliberately wrong reference shows up as failed checks;
and that run.py exits with an error, printing no result, when the sources
are missing.
"""

from __future__ import annotations

import copy
import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

from run import BENCH, OUT_DIR, ROOT, flatten, measure, print_result, run_worker
from workloads import WORKLOADS, make_params

SEED = 1


def result_line(res: dict) -> dict:
    buf = io.StringIO()
    with redirect_stdout(buf), redirect_stderr(io.StringIO()):
        print_result(res)
    return json.loads(buf.getvalue().splitlines()[-1])


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {what}")


def check_metrics(line: dict, spec: list[dict], what: str) -> None:
    expect(set(line) == {"correct", "attempted", "failed", "metrics"}, f"{what}: result keys {sorted(line)}")
    want = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in line["metrics"].items()}
    expect(got == want, f"{what}: metrics {got} != {want}")
    for name, m in line["metrics"].items():
        expect(isinstance(m["value"], (int, float)), f"{what}: {name} is not a number")


def check_workload(workload: str, bench: dict) -> None:
    p = make_params(workload, SEED, "tiny")
    rec = run_worker(p, SEED, trace=0)
    ref = flatten(rec["outputs"], rec["classes"])

    line = result_line(measure(workload, SEED, 0, 0, scale="tiny", reference=ref))
    check_metrics(line, bench["end_to_end"], f"{workload} untraced")
    expect(line["correct"] and line["failed"] == 0 and line["attempted"] > 0, f"{workload}: checks failed")

    line = result_line(measure(workload, SEED, 0, 1, scale="tiny", reference=ref))
    check_metrics(line, bench["per_layer"], f"{workload} traced")
    expect(line["correct"], f"{workload} traced: checks failed")
    for name, m in line["metrics"].items():
        if m["unit"] == "s" and name != "trace.overhead_s":
            expect(m["value"] > 0, f"{workload}: span {name} was not recorded")

    wrong = copy.deepcopy(ref)
    wrong["arith.mu_sha256"] = "0" * 64
    key = next(k for k in sorted(wrong) if k.endswith(".delta_sq"))
    wrong[key] *= 1 + 1e-9
    line = result_line(measure(workload, SEED, 0, 0, scale="tiny", reference=wrong))
    expect(not line["correct"] and line["failed"] == 2, f"{workload}: wrong reference gave {line}")
    print(f"selftest {workload}: ok ({line['attempted']} checks per pass)")


def check_missing_sources() -> None:
    """In a directory holding only BENCHMARK.json and perfbench/, run.py must fail."""
    bare = OUT_DIR / "selftest_bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "band", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and "correct" not in proc.stdout, "run.py without sources")
    print("selftest missing sources: ok")


def main() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT_DIR.mkdir(exist_ok=True)
    for workload in WORKLOADS:
        check_workload(workload, bench)
    check_missing_sources()
    print("selftest passed")


if __name__ == "__main__":
    main()
