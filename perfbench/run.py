"""Benchmark of vaughanlab: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload band --seed 0 --seconds 30 --trace 0

Runs fresh single-threaded worker processes (perfbench/worker.py) against the
sources in src/ for about --seconds, checks every output of every
pass against the stored reference in perfbench/reference/, writes a result
file to perfbench/out/ and prints a table followed by one JSON line:

- --trace 0: end-to-end metrics, each the median over the passes;
- --trace 1: untraced and traced passes alternate; per-layer metrics are the
  medians over the traced passes, plus the tracing overhead.

Only this process and its workers are measured: caches are not dropped, CPUs
are not pinned, and the machine may be shared.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, Params, make_params, work_counts

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = BENCH / "out"
REL_TOL = 1e-12
# A run starts no further passes once this much time is used, so the whole run
# stays within its 180 s limit.
MAX_RUN_S = 150.0
WORKER_TIMEOUT_S = 170.0

E2E_UNITS = {"setup_s": "s", "solve_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
CALLS = (
    "arith.build_sieve",
    "arith.build_tables",
    "frmodel.fr_config",
    "frmodel.fr_table",
    "constants.constant_set",
    "variance.variance_sum_all",
    "variance.variance_sum_coprime",
    "variance.variance_sum_shift_coprime",
    "variance.bdh_variance",
    "variance.delta_sq_progression",
    "variance.theorem3_prediction",
    "variance.theorem3_refined_prediction",
)
COUNTS = (
    "arith.n",
    "arith.table_bytes",
    "frmodel.squarefree_r",
    "variance.moduli",
    "variance.classes",
    "variance.progression_classes",
)
LAYER_UNITS = {
    **{f"{c}_s": "s" for c in CALLS},
    **{c: "count" for c in COUNTS},
    "trace.overhead_s": "s",
    "trace.span_share": "ratio",
}
CONTEXT_NOTE = (
    "Only this process and its workers are measured: no cache drops, no CPU "
    "pinning, the machine may be shared with other work."
)


class BenchError(RuntimeError):
    """The benchmark could not measure: missing sources, a worker crash, a stale reference."""


def load_reference(p: Params) -> dict:
    """The stored outputs for these inputs, one key per checked value."""
    path = BENCH / "reference" / f"{p.workload}.json"
    ref = json.loads(path.read_text())
    entry = ref["variants"].get(str(p.variant))
    if entry is None or entry["params"] != p.to_json():
        raise BenchError(f"{path} has no entry for {p.to_json()}; regenerate it with make_reference.py")
    return flatten(entry["outputs"], entry["classes"])


def flatten(outputs: dict, classes: list) -> dict:
    """One key per checked value: the scalars plus three values per progression class."""
    flat = dict(outputs)
    for v, n, emp, closed, refined in classes:
        flat[f"class.v{v}.N{n}.delta_sq"] = emp
        flat[f"class.v{v}.N{n}.theorem3"] = closed
        flat[f"class.v{v}.N{n}.theorem3_refined"] = refined
    return flat


def _matches(got, want) -> bool:
    if isinstance(want, str):
        return got == want
    if isinstance(got, bool) or not isinstance(got, (int, float)):
        return False
    return abs(got - want) <= REL_TOL * max(abs(got), abs(want))


def check(got: dict, want: dict) -> tuple[int, list[str]]:
    """Compare every value; digests exactly, numbers to REL_TOL relative.

    A value missing on either side counts as an attempted check that failed.
    Returns (attempted, failure messages).
    """
    keys = sorted(set(got) | set(want))
    failures = [
        f"{k}: got {got.get(k, '<missing>')!r}, want {want.get(k, '<missing>')!r}"
        for k in keys
        if not _matches(got.get(k), want.get(k))
    ]
    return len(keys), failures


def worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(p: Params, seed: int, trace: int) -> dict:
    """One pass in a fresh process; wall_s is its spawn-to-exit time minus output digesting."""
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", p.workload, "--seed", str(seed), "--scale", p.scale, "--trace", str(trace),
    ]
    t0 = time.perf_counter()
    proc = subprocess.run(
        cmd, cwd=ROOT, env=worker_env(), capture_output=True, text=True, timeout=WORKER_TIMEOUT_S
    )
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    if not Path(rec["vaughanlab_file"]).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"worker imported vaughanlab from {rec['vaughanlab_file']}, not {ROOT / 'src'}")
    rec["trace"] = trace
    rec["wall_s"] = wall - rec["check_s"]
    return rec


def git_revision() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_context(first: dict) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_bytes": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE"),
        "python": first["python"],
        "numpy": first["numpy"],
        "git_revision": git_revision(),
        "threads": 1,
        "note": CONTEXT_NOTE,
    }


def span_sums(rec: dict) -> dict[str, float]:
    sums = dict.fromkeys(CALLS, 0.0)
    for _, name, start, end, _ in rec["spans"]:
        if name in sums:
            sums[name] += end - start
    return sums


def measure(workload: str, seed: int, seconds: float, trace: int,
            scale: str = "full", reference: dict | None = None) -> dict:
    """Run passes for about `seconds`, check them and aggregate the metrics.

    Passes (untraced and traced pairs with `trace`) repeat until less than
    half a round of `seconds` is left, so a run ends within half a pass of
    `seconds` whatever the speed of the machine.
    """
    if not (ROOT / "src" / "vaughanlab" / "__init__.py").is_file():
        raise BenchError(f"no vaughanlab sources under {ROOT / 'src'}")
    p = make_params(workload, seed, scale)
    want = reference if reference is not None else load_reference(p)
    kinds = (0, 1) if trace else (0,)
    passes: list[dict] = []
    t0 = time.perf_counter()
    while True:
        passes.extend(run_worker(p, seed, kind) for kind in kinds)
        elapsed = time.perf_counter() - t0
        per_round = elapsed * len(kinds) / len(passes)
        if elapsed + per_round / 2 >= seconds or elapsed + per_round > MAX_RUN_S:
            break

    attempted, failures = 0, []
    for rec in passes:
        n, fails = check(flatten(rec["outputs"], rec["classes"]), want)
        attempted += n
        failures.extend(fails)
    plain = [r for r in passes if r["trace"] == 0]
    traced = [r for r in passes if r["trace"] == 1]
    e2e = {m: statistics.median(r[m] for r in plain) for m in E2E_UNITS}
    layers: dict[str, float] = {}
    if traced:
        sums = [span_sums(r) for r in traced]
        layers = {f"{c}_s": statistics.median(s[c] for s in sums) for c in CALLS}
        layers.update(work_counts(p))
        layers["arith.table_bytes"] = traced[0]["table_bytes"]
        layers["trace.overhead_s"] = (
            statistics.median(r["wall_s"] for r in traced) - e2e["wall_s"]
        )
        layers["trace.span_share"] = statistics.median(
            sum(s.values()) / (r["setup_s"] + r["solve_s"]) for s, r in zip(sums, traced)
        )
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "params": p.to_json(),
        "context": run_context(passes[0]),
        "attempted": attempted,
        "failed": len(failures),
        "fail_rate": len(failures) / attempted,
        "failures": failures[:50],
        "end_to_end": e2e,
        "per_layer": layers,
        "passes": [{k: v for k, v in r.items() if k not in ("outputs", "classes")} for r in passes],
    }


def print_result(res: dict) -> None:
    """A readable table, then the one-line JSON result as the last line."""
    n_plain = sum(1 for r in res["passes"] if r["trace"] == 0)
    print(f"workload {res['workload']}  seed {res['seed']}  passes {len(res['passes'])}"
          f"  (untraced {n_plain})  git {res['context']['git_revision']}")
    rows = [(m, v, E2E_UNITS[m]) for m, v in res["end_to_end"].items()]
    rows.append(("fail_rate", res["fail_rate"], f"of {res['attempted']} checks"))
    rows += [(m, v, LAYER_UNITS[m]) for m, v in res["per_layer"].items()]
    for name, value, unit in rows:
        shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6g}"
        print(f"  {name:<44} {shown}  {unit}")
    for msg in res["failures"][:10]:
        print(f"  FAILED {msg}", file=sys.stderr)
    units = LAYER_UNITS if res["trace"] else E2E_UNITS
    values = res["per_layer"] if res["trace"] else res["end_to_end"]
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m: {"value": values[m], "unit": u} for m, u in units.items()},
    }))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        res = measure(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, OSError, ValueError, subprocess.TimeoutExpired) as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 1
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(res, indent=1) + "\n")
    print_result(res)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
