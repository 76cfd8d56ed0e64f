"""One pass of a benchmark workload, run in a fresh single-threaded process.

Calls the public functions of arith, frmodel, constants and variance the way
the CLI and scripts/progression_deviation_table.py call them, times the
set-up and solve phases, and with --trace 1 also records one span around each
public call.  Prints one JSON object on its last line of standard output:
phase times, peak RSS, spans and the outputs that run.py checks.

    PYTHONPATH=src python3 perfbench/worker.py --workload band --seed 0 --trace 0
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import platform
import resource
import time
from contextlib import contextmanager

import numpy as np
from workloads import SCALES, WORKLOADS, Params, make_params

T_IMPORT = time.perf_counter()
import vaughanlab  # noqa: E402  (timed separately from numpy and the harness)
from vaughanlab import (  # noqa: E402
    FRConfig,
    Mode,
    RestrictionMode,
    bdh_variance,
    build_sieve,
    build_tables,
    constant_set,
    delta_sq_progression,
    theorem3_prediction,
    theorem3_refined_prediction,
    variance_sum,
)

IMPORT_S = time.perf_counter() - T_IMPORT

# Indices per table at which sampled values are checked.
N_SAMPLES = 24


class Tracer:
    """In-memory spans (id, name, start, end, parent id) in perf_counter seconds.

    Phase spans are always kept; spans around single public calls only when
    enabled, so an untraced pass pays two timer reads per phase and nothing
    per call.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append((sid, name, 0.0, 0.0, parent))
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, name, start, end, parent)

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name):
            return fn(*args, **kwargs)

    def duration(self, name: str) -> float:
        return sum(end - start for _, n, start, end, _ in self.spans if n == name)


def setup(p: Params, tr: Tracer):
    sieve = tr.call("arith.build_sieve", build_sieve, p.x)
    tables = tr.call("arith.build_tables", build_tables, sieve)
    cfg = tr.call("frmodel.fr_config", FRConfig, R=p.r, tables=tables)
    tr.call("frmodel.fr_table", cfg.table)
    cs = tr.call("constants.constant_set", constant_set)
    return tables, cfg, cs


def solve(p: Params, tables, cfg: FRConfig, cs, tr: Tracer):
    """Run the banded and the progression part; return (scalars, class rows).

    A class row is [v, N, delta_sq, theorem3 total, theorem3 refined total].
    """
    out: dict[str, float] = {}
    modes = {
        "all": RestrictionMode(Mode.ALL),
        "coprime": RestrictionMode(Mode.COPRIME),
        "shift_coprime": RestrictionMode(Mode.SHIFT_COPRIME, p.n_shift),
    }
    for name, mode in modes.items():
        run = tr.call(
            f"variance.variance_sum_{name}",
            variance_sum,
            p.x, p.q, cfg, mode, q_low=p.q_low, threads=1, constants=cs,
        )
        out[f"band.{name}.empirical"] = run.empirical
        out[f"band.{name}.predicted"] = run.predicted_total
    run = tr.call("variance.bdh_variance", bdh_variance, p.x, p.bdh_q, tables, threads=1)
    out["band.bdh.empirical"] = run.empirical
    rows = []
    for v, n in p.classes:
        emp = tr.call("variance.delta_sq_progression", delta_sq_progression, p.x, v, n, cfg)
        closed = tr.call("variance.theorem3_prediction", theorem3_prediction, p.x, v, n, p.r, cs)
        refined = tr.call(
            "variance.theorem3_refined_prediction", theorem3_refined_prediction, p.x, v, n, cfg, cs
        )
        rows.append([v, n, emp, closed.total, refined.total])
    return out, rows


def _sha256(arr: np.ndarray) -> str:
    return hashlib.sha256(memoryview(np.ascontiguousarray(arr))).hexdigest()


def table_outputs(p: Params, tables, cfg: FRConfig, cs) -> dict:
    """Digests of the integer tables, sampled values and sums of the float tables."""
    idx = np.random.default_rng(p.variant).integers(1, p.x + 1, N_SAMPLES)
    out: dict = {
        "arith.spf_sha256": _sha256(tables.sieve.spf),
        "arith.mu_sha256": _sha256(tables.mu),
        "arith.phi_sha256": _sha256(tables.phi),
    }
    for name, arr in (("lam", tables.lam), ("theta", tables.theta), ("fr", cfg.table())):
        out[f"arith.{name}.sum"] = float(arr.sum())
        for i in idx:
            out[f"arith.{name}[{int(i)}]"] = float(arr[i])
    for name in ("gamma", "logp_sum", "c0", "c1", "c2"):
        out[f"constants.{name}"] = getattr(cs, name)
    return out


def table_bytes(tables) -> int:
    """Summed nbytes of the arrays held by ArithTables and its FactorSieve."""
    total = 0
    for obj in (tables, tables.sieve):
        for f in dataclasses.fields(obj):
            val = getattr(obj, f.name)
            if isinstance(val, np.ndarray):
                total += val.nbytes
    return total


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", choices=SCALES, default="full")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    p = make_params(args.workload, args.seed, args.scale)

    tr = Tracer(enabled=bool(args.trace))
    with tr.span("setup"):
        tables, cfg, cs = setup(p, tr)
    with tr.span("solve"):
        outputs, classes = solve(p, tables, cfg, cs, tr)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    t0 = time.perf_counter()
    outputs.update(table_outputs(p, tables, cfg, cs))
    check_s = time.perf_counter() - t0
    print(json.dumps({
        "vaughanlab_file": vaughanlab.__file__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "import_s": IMPORT_S,
        "setup_s": tr.duration("setup"),
        "solve_s": tr.duration("solve"),
        "check_s": check_s,
        "peak_rss_mb": peak_rss_mb,
        "table_bytes": table_bytes(tables),
        "spans": tr.spans,
        "outputs": outputs,
        "classes": classes,
    }))


if __name__ == "__main__":
    main()
