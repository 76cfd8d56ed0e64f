"""Command-line toolkit for the model and the variance experiments.

Subcommands:
    constants   print the constant table (gamma, prime sums, products, t(N))
    fr-table    dump n, Lambda(n), F_R(n), delta(n) for n <= x
    theorem3    progression-restricted second moments of the residual
    vaughan     banded variance over all residue classes
    theorem5    banded variance over reduced residue classes
    theorem4    banded variance over shifted-coprime classes gcd(N-b, d) = 1
    bdh         classical variance against x/phi(d) on reduced classes
    suite       run a desk-scale battery of the above and write a report
    report      merge manifests from earlier runs into one comparison report

Q may be given directly (--Q) or via --B as Q = floor(x (log x)^-B); R directly
(--R) or via --G as R = (log x)^G.  A flat key = value config file can supply
any flag (--config); explicit flags override the file.  Results go to --out,
else $VAUGHANLAB_OUT, else ./results; each run writes results.csv,
results.json and manifest.json, with floats printed to 12 significant digits.
Exit status is 0 only if every requested run completed.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import hashlib
import json
import math
import os
import resource
import sys
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .arith import ArithTables, build_sieve, build_tables, prime_array
from .constants import (
    ConstantSet,
    ProductKind,
    _small_factorization,
    constant_set,
    restricted_product,
    t_of_n,
)
from .frmodel import FRConfig
from .variance import (
    Mode,
    RestrictionMode,
    VarianceRun,
    Weight,
    bdh_variance,
    delta_sq_progression,
    theorem3_coupled_prediction,
    theorem3_prediction,
    variance_sum,
)

__all__ = ["ExperimentConfig", "RunManifest", "run", "report", "main"]

ENV_OUT = "VAUGHANLAB_OUT"

RESULT_COLUMNS = [
    "x",
    "Q",
    "Q_low",
    "R",
    "mode",
    "N",
    "v",
    "weight",
    "empirical",
    "predicted_total",
    "predicted_coupled",
    "term_main",
    "term_const",
    "term_r",
    "term_phi2",
    "term_neg",
    "relative_deviation",
    "relative_deviation_main",
    "wall_time_ms",
]

CONSTANT_COLUMNS = ["name", "value", "tail_bound", "prime_cutoff", "note"]

VARIANCE_COMMANDS = {
    "vaughan": Mode.ALL,
    "theorem5": Mode.COPRIME,
    "theorem4": Mode.SHIFT_COPRIME,
    "bdh": Mode.BDH,
}


class UsageError(ValueError):
    """Bad command line or config file contents."""


@dataclass
class ExperimentConfig:
    """Flat run description; every field maps to one CLI flag / config key."""

    command: str = ""
    x: int | None = None
    q: int | None = None
    b_exp: float | None = None
    r: float | None = None
    g_exp: float | None = None
    n_shift: int = 1
    v_list: list[int] = field(default_factory=lambda: [1, 2, 3, 5, 6, 7, 10])
    prime_cutoff: int = 10**7
    q_low: str = "0"
    weight: str = "theta"
    threads: int = 0
    scale: str = "desk"
    output_dir: str = ""
    format: str = "csv"


def config_to_text(cfg: ExperimentConfig) -> str:
    """Serialize as the flat key = value file format parsed by config_from_text."""
    lines = []
    for f in dataclasses.fields(ExperimentConfig):
        val = getattr(cfg, f.name)
        if val is None:
            continue
        if isinstance(val, list):
            val = ",".join(str(v) for v in val)
        lines.append(f"{f.name} = {val}")
    return "\n".join(lines) + "\n"


def config_from_text(text: str) -> ExperimentConfig:
    known = {f.name: f for f in dataclasses.fields(ExperimentConfig)}
    kwargs: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"config line {lineno} is not 'key = value': {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in known:
            raise UsageError(f"unknown config key {key!r} on line {lineno}")
        kwargs[key] = _parse_field(key, val)
    return ExperimentConfig(**kwargs)


def _parse_field(key: str, val: str):
    try:
        if key == "v_list":
            return [int(v) for v in val.split(",") if v.strip()]
        if key in ("x", "q", "prime_cutoff", "threads", "n_shift"):
            return int(val)
        if key in ("b_exp", "r", "g_exp"):
            return float(val)
    except ValueError as e:
        raise UsageError(f"bad value for {key}: {val!r}") from e
    return val


@dataclass
class RunManifest:
    """Everything needed to reproduce and audit one CLI run."""

    config: dict
    derived: dict
    version: str
    timestamp: str
    checksums: dict
    results: list[str]

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True)


def _fmt(v) -> str:
    if v is None or v == "":
        return ""
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


# One entry each: consecutive runs at the same x and R (as in the suite) share
# the tables and F_R config; a run at a new x or R lets the old ones go.
@functools.lru_cache(maxsize=1)
def _tables_for(limit: int) -> ArithTables:
    return build_tables(build_sieve(limit))


@functools.lru_cache(maxsize=1)
def _fr_for(limit: int, r: float) -> FRConfig:
    return FRConfig(R=r, tables=_tables_for(limit))


def _resolve_q(cfg: ExperimentConfig) -> int:
    if (cfg.q is None) == (cfg.b_exp is None):
        raise UsageError("give exactly one of Q (--Q) or B (--B)")
    x = _require_x(cfg)
    q = cfg.q if cfg.q is not None else int(math.floor(x * math.log(x) ** (-cfg.b_exp)))
    if not 1 <= q <= x:
        raise UsageError(f"Q must satisfy 1 <= Q <= x, got Q = {q}, x = {x}")
    return q


def _resolve_r(cfg: ExperimentConfig) -> float:
    if (cfg.r is None) == (cfg.g_exp is None):
        raise UsageError("give exactly one of R (--R) or G (--G)")
    x = _require_x(cfg)
    r = float(cfg.r) if cfg.r is not None else math.log(x) ** cfg.g_exp
    if not 1 <= r <= x:
        raise UsageError(f"R must satisfy 1 <= R <= x, got R = {r:g}, x = {x}")
    return r


def _resolve_n(cfg: ExperimentConfig, least: int) -> int:
    if cfg.n_shift < least:
        raise UsageError(f"N must be >= {least} for {cfg.command}, got {cfg.n_shift}")
    return cfg.n_shift


def _resolve_shift(cfg: ExperimentConfig) -> int:
    n = _resolve_n(cfg, 1)
    if any(p > cfg.prime_cutoff for p, _ in _small_factorization(n)):
        raise UsageError(f"N = {n} has a prime factor above the prime cutoff {cfg.prime_cutoff}")
    return n


def _resolve_v_list(cfg: ExperimentConfig, x: int) -> list[int]:
    for v in cfg.v_list:
        if not 1 <= v <= x or any(e > 1 for _, e in _small_factorization(v)):
            raise UsageError(f"each v must be squarefree with 1 <= v <= x, got v = {v}, x = {x}")
    return cfg.v_list


def _resolve_threads(cfg: ExperimentConfig) -> int:
    if cfg.threads < 0:
        raise UsageError(f"threads must be >= 0, got {cfg.threads}")
    return cfg.threads or (os.cpu_count() or 1)


def _require_x(cfg: ExperimentConfig) -> int:
    if cfg.x is None:
        raise UsageError(f"command {cfg.command!r} requires --x")
    if not 2 <= cfg.x < 2**31:
        raise UsageError(f"x must satisfy 2 <= x < 2^31 (the int32 sieve), got {cfg.x}")
    return cfg.x


def _resolve_q_low(cfg: ExperimentConfig, x: int, r: float) -> float:
    if cfg.q_low == "auto":
        return x / r
    try:
        val = float(cfg.q_low)
    except ValueError as e:
        raise UsageError(f"q_low must be a number or 'auto', got {cfg.q_low!r}") from e
    if val < 0:
        raise UsageError(f"q_low must be >= 0, got {val}")
    return val


def _resolve_weight(cfg: ExperimentConfig) -> Weight:
    try:
        return Weight(cfg.weight)
    except ValueError as e:
        raise UsageError(f"weight must be 'theta' or 'psi', got {cfg.weight!r}") from e


def _out_dir(cfg: ExperimentConfig) -> Path:
    base = cfg.output_dir or os.environ.get(ENV_OUT, "") or "results"
    p = Path(base)
    p.mkdir(parents=True, exist_ok=True)
    return p


def _sha256(arr) -> str:
    """Digest of the array's bytes in C order, hashed in place rather than copied."""
    return hashlib.sha256(memoryview(np.ascontiguousarray(arr))).hexdigest()


def _timed(derived: dict, build, *args):
    """Call build(*args), adding its seconds to derived["tables_s"]."""
    t0 = time.perf_counter()
    out = build(*args)
    derived["tables_s"] += time.perf_counter() - t0
    return out


def _variance_row(run: VarianceRun) -> dict:
    terms = run.predicted_terms
    return {
        "x": run.x,
        "Q": run.q,
        "Q_low": run.q_low,
        "R": run.r if run.r else "",
        "mode": run.mode.value,
        "N": run.n_shift if run.mode is Mode.SHIFT_COPRIME else "",
        "v": "",
        "weight": run.weight.value,
        "empirical": run.empirical,
        "predicted_total": run.predicted_total,
        "predicted_coupled": "",
        "term_main": terms.get("log_term", terms.get("leading")),
        "term_const": terms.get("const_term", terms.get("fitted_C")),
        "term_r": "",
        "term_phi2": "",
        "term_neg": "",
        "relative_deviation": run.relative_deviation,
        "relative_deviation_main": run.relative_deviation_main,
        "wall_time_ms": run.wall_time_ms,
    }


def _theorem3_rows(x: int, r: float, v_list: list[int], n_shift: int, cfg_fr: FRConfig, cs: ConstantSet) -> list[dict]:
    rows = []
    for v in v_list:
        t0 = time.perf_counter()
        emp = delta_sq_progression(x, v, n_shift, cfg_fr)
        wall = (time.perf_counter() - t0) * 1e3
        pred = theorem3_prediction(x, v, n_shift, r, cs)
        coupled = theorem3_coupled_prediction(x, v, n_shift, r, cs)
        rows.append(
            {
                "x": x,
                "Q": "",
                "Q_low": "",
                "R": r,
                "mode": "progression",
                "N": n_shift,
                "v": v,
                "weight": "psi",
                "empirical": emp,
                "predicted_total": pred.total,
                "predicted_coupled": coupled.total,
                "term_main": pred.terms["delta_main"],
                "term_const": "",
                "term_r": pred.terms["r_term"],
                "term_phi2": pred.terms["phi2_term"],
                "term_neg": pred.terms["neg_term"],
                "relative_deviation": (emp - pred.total) / pred.total if pred.total else None,
                "relative_deviation_main": (emp - pred.total) / (x * math.log(x) / v),
                "wall_time_ms": wall,
            }
        )
    return rows


def _constants_rows(cut: int) -> list[dict]:
    cs = constant_set(cut)
    rows = [
        {"name": "gamma", "value": cs.gamma, "tail_bound": 0.0, "prime_cutoff": "", "note": ""},
        {"name": "logp_sum", "value": cs.logp_sum, "tail_bound": cs.tail_bound, "prime_cutoff": cut, "note": ""},
        {"name": "c0", "value": cs.c0, "tail_bound": cs.tail_bound, "prime_cutoff": cut, "note": "1 + gamma + logp_sum"},
        {"name": "c1", "value": cs.c1, "tail_bound": 2 * cs.tail_bound, "prime_cutoff": cut, "note": "2*c0 - 1"},
        {"name": "c2", "value": cs.c2, "tail_bound": cs.tail_bound, "prime_cutoff": cut, "note": "c0 - 1"},
        {"name": "zeta2_inv", "value": cs.zeta2_inv, "tail_bound": 0.0, "prime_cutoff": "", "note": "6/pi^2"},
    ]
    for kind, n in [(ProductKind.P_PM1, 1), (ProductKind.P_PM1, 2), (ProductKind.P_SQ, 2), (ProductKind.P_ZETA, 1)]:
        p = restricted_product(kind, n, cut)
        rows.append(
            {
                "name": f"{kind.name}({n})",
                "value": p.value,
                "tail_bound": p.tail_bound,
                "prime_cutoff": cut,
                "note": "",
            }
        )
    for n in [1, 2, 3, 5, 6, 30]:
        t = t_of_n(n, cut)
        rows.append(
            {
                "name": f"t({n})",
                "value": t.value,
                "tail_bound": t.truncation_error,
                "prime_cutoff": cut,
                "note": "" if t.meets_lower_bound else "below 1",
            }
        )
    return rows


def _write_csv(stream, columns: list[str], rows: list[dict]) -> None:
    w = csv.writer(stream)
    w.writerow(columns)
    for row in rows:
        w.writerow([_fmt(row.get(c)) for c in columns])


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, default=_fmt) + "\n")


def run(cfg: ExperimentConfig) -> RunManifest:
    """Execute one configured run, write its result files, return the manifest."""
    if cfg.command == "suite":
        return _run_suite(cfg)
    if cfg.command == "report":
        raise UsageError("report takes manifest paths, not a run config")

    if cfg.prime_cutoff < 10:
        raise UsageError(f"prime cutoff must be >= 10, got {cfg.prime_cutoff}")
    out = _out_dir(cfg)
    checksums: dict[str, str] = {}
    derived: dict = {"threads": _resolve_threads(cfg), "tables_s": 0.0}

    if cfg.command == "constants":
        rows = _constants_rows(cfg.prime_cutoff)
        columns = CONSTANT_COLUMNS
        checksums["primes_sha256"] = _sha256(prime_array(cfg.prime_cutoff))
    elif cfg.command == "fr-table":
        x = _require_x(cfg)
        r = _resolve_r(cfg)
        derived["R"] = r
        fr = _timed(derived, _fr_for, x, r)
        t = fr.table()
        lam = fr.tables.lam
        columns = ["n", "lambda", "fr", "delta"]
        rows = [
            {"n": n, "lambda": float(lam[n]), "fr": float(t[n]), "delta": float(lam[n] - t[n])}
            for n in range(1, x + 1)
        ]
        checksums["lambda_sha256"] = _sha256(lam)
        checksums["fr_sha256"] = _sha256(t)
    elif cfg.command == "theorem3":
        x = _require_x(cfg)
        r = _resolve_r(cfg)
        if r > x ** (1.0 / 3.0) * (1 + 1e-12):
            raise UsageError(
                f"theorem3 requires the hypothesis R <= x^(1/3): got R = {r:g}, x^(1/3) = {x ** (1/3):.6g}"
            )
        v_list = _resolve_v_list(cfg, x)
        n_shift = _resolve_n(cfg, 0)
        derived["R"] = r
        fr = _timed(derived, _fr_for, x, r)
        cs = constant_set(cfg.prime_cutoff)
        rows = _theorem3_rows(x, r, v_list, n_shift, fr, cs)
        columns = RESULT_COLUMNS
        checksums["lambda_sha256"] = _sha256(fr.tables.lam)
        checksums["fr_sha256"] = _sha256(fr.table())
    elif cfg.command in VARIANCE_COMMANDS:
        x = _require_x(cfg)
        q = _resolve_q(cfg)
        weight = _resolve_weight(cfg)
        threads = derived["threads"]
        mode = VARIANCE_COMMANDS[cfg.command]
        derived["Q"] = q
        if mode is Mode.BDH:
            tables = _timed(derived, _tables_for, x)
            vrun = bdh_variance(x, q, tables, threads=threads, weight=weight)
            checksums["lambda_sha256"] = _sha256(tables.lam)
        else:
            r = _resolve_r(cfg)
            q_low = _resolve_q_low(cfg, x, r)
            if q_low >= q:
                raise UsageError(f"Q_low must be below Q = {q}, got {q_low:g}")
            restriction = RestrictionMode(mode, _resolve_shift(cfg) if mode is Mode.SHIFT_COPRIME else 0)
            derived["R"] = r
            derived["Q_low"] = q_low
            fr = _timed(derived, _fr_for, x, r)
            cs = constant_set(cfg.prime_cutoff)
            vrun = variance_sum(
                x, q, fr, restriction, weight=weight, q_low=q_low, threads=threads, constants=cs
            )
            checksums["lambda_sha256"] = _sha256(fr.tables.lam)
            checksums["fr_sha256"] = _sha256(fr.table())
        rows = [_variance_row(vrun)]
        columns = RESULT_COLUMNS
    else:
        raise UsageError(f"unknown command {cfg.command!r}")

    # ru_maxrss is in KiB on Linux; the peak of the whole process so far.
    derived["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    csv_path = out / "results.csv"
    json_path = out / "results.json"
    with csv_path.open("w", newline="") as fh:
        _write_csv(fh, columns, rows)
    _write_json(json_path, {"command": cfg.command, "columns": columns, "rows": rows})
    manifest = RunManifest(
        config=dataclasses.asdict(cfg),
        derived=derived,
        version=__version__,
        timestamp=datetime.now(timezone.utc).isoformat(),
        checksums=checksums,
        results=[csv_path.name, json_path.name],
    )
    (out / "manifest.json").write_text(manifest.to_json() + "\n")
    if cfg.format == "json":
        print(json.dumps(rows, indent=2, sort_keys=True, default=_fmt))
    else:
        _write_csv(sys.stdout, columns, rows)
    return manifest


_SUITE_DESK = [
    ("constants", {}),
    ("theorem3", {"x": 10**6, "r": 50.0, "v_list": [1, 2, 3, 5, 6, 7, 10], "n_shift": 1}),
    ("vaughan", {"x": 10**5, "q": 10**4, "r": 30.0, "q_low": "auto"}),
    ("theorem5", {"x": 10**5, "q": 10**4, "r": 30.0, "q_low": "auto"}),
    ("theorem4", {"x": 10**5, "q": 10**4, "r": 30.0, "q_low": "auto", "n_shift": 2}),
    ("bdh", {"x": 10**4, "q": 10**3}),
]

_SUITE_QUICK = [
    ("constants", {"prime_cutoff": 10**5}),
    ("theorem3", {"x": 10**4, "r": 10.0, "v_list": [1, 2, 3, 5, 6], "n_shift": 1}),
    ("vaughan", {"x": 10**4, "q": 2000, "r": 10.0, "q_low": "auto"}),
    ("theorem5", {"x": 10**4, "q": 2000, "r": 10.0, "q_low": "auto"}),
    ("theorem4", {"x": 10**4, "q": 2000, "r": 10.0, "q_low": "auto", "n_shift": 2}),
    ("bdh", {"x": 10**3, "q": 100}),
]


def _run_suite(cfg: ExperimentConfig) -> RunManifest:
    out = _out_dir(cfg)
    plan = _SUITE_QUICK if cfg.scale == "quick" else _SUITE_DESK
    manifest_paths = []
    for command, overrides in plan:
        # Q and R come from the plan alone, never from the suite's own config
        fields = {"q": None, "b_exp": None, "r": None, "g_exp": None, **overrides}
        run(dataclasses.replace(cfg, command=command, output_dir=str(out / command), **fields))
        manifest_paths.append(str(out / command / "manifest.json"))
    text = report(manifest_paths)
    (out / "report.txt").write_text(text)
    manifest = RunManifest(
        config=dataclasses.asdict(cfg),
        derived={"runs": list(manifest_paths)},
        version=__version__,
        timestamp=datetime.now(timezone.utc).isoformat(),
        checksums={},
        results=["report.txt"] + manifest_paths,
    )
    (out / "manifest.json").write_text(manifest.to_json() + "\n")
    print(text)
    return manifest


def report(manifest_paths: list[str]) -> str:
    """Merge earlier runs into a comparison report.

    Highlights the two headline contrasts: the reduced-class log R coefficient
    -(2 - 1/zeta(2)) against the all-class coefficient -1, and the truncation
    exponents t(N) with any value below 1 flagged.
    """
    lines = ["run comparison", "=" * 60]
    variance_by_mode: dict[str, dict] = {}
    for mp in manifest_paths:
        path = Path(mp)
        if not path.exists():
            raise FileNotFoundError(f"manifest not found: {mp}")
        manifest = json.loads(path.read_text())
        res = path.parent / "results.json"
        if not res.exists():
            raise FileNotFoundError(f"results.json missing next to manifest: {res}")
        payload = json.loads(res.read_text())
        command = payload.get("command", "?")
        lines.append(f"\n[{command}] from {mp}")
        for row in payload.get("rows", []):
            if command == "constants":
                if str(row.get("name", "")).startswith("t("):
                    flag = f"  <-- {row['note']}" if row.get("note") else ""
                    lines.append(f"  {row['name']} = {row['value']}{flag}")
                elif row.get("name") in ("c0", "zeta2_inv", "P_PM1(1)", "P_SQ(2)"):
                    lines.append(f"  {row['name']} = {row['value']}")
            elif "empirical" in row:
                mode = row.get("mode", "")
                emp = row.get("empirical")
                pred = row.get("predicted_total")
                dev = row.get("relative_deviation")
                vtag = f" v={row['v']}" if row.get("v") else ""
                line = f"  mode={mode}{vtag} empirical={emp} predicted={pred} rel_dev={dev}"
                coupled = row.get("predicted_coupled")
                if coupled not in (None, ""):
                    cdev = (emp - coupled) / coupled if coupled else None
                    line += f" coupled={coupled} coupled_rel_dev={cdev}"
                lines.append(line)
                if mode in ("all", "coprime") and isinstance(emp, (int, float)):
                    variance_by_mode[mode] = row
    if "all" in variance_by_mode and "coprime" in variance_by_mode:
        ea = float(variance_by_mode["all"]["empirical"])
        ec = float(variance_by_mode["coprime"]["empirical"])
        gap = (ea - ec) / ea if ea else float("nan")
        lines.append("\nlog R coefficient contrast:")
        lines.append("  all residues: coefficient -1; reduced residues: -(2 - 1/zeta(2)) ~ -1.392073")
        lines.append(f"  empirical gap (all - coprime)/all = {gap:.6g}")
    lines.append("")
    return "\n".join(lines)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D401 - argparse hook
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="vaughanlab", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, need_x=True):
        p.add_argument("--config", type=str, default=None, help="flat key = value config file")
        if need_x:
            p.add_argument("--x", type=int, default=None)
        p.add_argument("--cutoff", dest="prime_cutoff", type=int, default=None, help="prime cutoff for constants")
        p.add_argument("--threads", type=int, default=None)
        p.add_argument("--out", dest="output_dir", type=str, default=None)
        p.add_argument("--format", choices=["csv", "json"], default=None)

    p = sub.add_parser("constants", help="print the constant table")
    add_common(p, need_x=False)

    p = sub.add_parser("fr-table", help="dump n, Lambda, F_R, delta for n <= x")
    add_common(p)
    p.add_argument("--R", dest="r", type=float, default=None)
    p.add_argument("--G", dest="g_exp", type=float, default=None)

    p = sub.add_parser("theorem3", help="progression second moments of the residual")
    add_common(p)
    p.add_argument("--R", dest="r", type=float, default=None)
    p.add_argument("--G", dest="g_exp", type=float, default=None)
    p.add_argument("--v", dest="v_list", type=str, default=None, help="comma-separated moduli")
    p.add_argument("--N", dest="n_shift", type=int, default=None)

    for name, helptext in [
        ("vaughan", "banded variance over all residues"),
        ("theorem5", "banded variance over reduced residues"),
        ("theorem4", "banded variance over shifted-coprime residues"),
    ]:
        p = sub.add_parser(name, help=helptext)
        add_common(p)
        p.add_argument("--Q", dest="q", type=int, default=None)
        p.add_argument("--B", dest="b_exp", type=float, default=None)
        p.add_argument("--R", dest="r", type=float, default=None)
        p.add_argument("--G", dest="g_exp", type=float, default=None)
        p.add_argument("--q-low", dest="q_low", type=str, default=None, help="number or 'auto' (= x/R)")
        p.add_argument("--weight", choices=["theta", "psi"], default=None)
        if name == "theorem4":
            p.add_argument("--N", dest="n_shift", type=int, default=None)

    p = sub.add_parser("bdh", help="classical variance against x/phi(d)")
    add_common(p)
    p.add_argument("--Q", dest="q", type=int, default=None)
    p.add_argument("--B", dest="b_exp", type=float, default=None)
    p.add_argument("--weight", choices=["theta", "psi"], default=None)

    p = sub.add_parser("suite", help="desk-scale battery with a merged report")
    add_common(p, need_x=False)
    p.add_argument("--scale", choices=["desk", "quick"], default=None)

    p = sub.add_parser("report", help="merge manifests into a comparison report")
    p.add_argument("manifests", nargs="+")

    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    base = ExperimentConfig()
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.exists():
            raise UsageError(f"config file not found: {args.config}")
        base = config_from_text(path.read_text())
    base.command = args.command
    for f in dataclasses.fields(ExperimentConfig):
        if f.name == "command":
            continue
        if hasattr(args, f.name):
            val = getattr(args, f.name)
            if val is not None:
                if f.name == "v_list" and isinstance(val, str):
                    val = _parse_field("v_list", val)
                setattr(base, f.name, val)
    return base


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "report":
            print(report(args.manifests))
            return 0
        cfg = _config_from_args(args)
        run(cfg)
        return 0
    except UsageError as e:
        print(json.dumps({"error": "usage", "message": str(e)}), file=sys.stderr)
        return 2
    except Exception as e:  # noqa: BLE001 - CLI boundary
        print(json.dumps({"error": type(e).__name__, "message": str(e)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
