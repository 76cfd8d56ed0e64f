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
(--R) or via --G as R = (log x)^G.  A flat key = value config file (--config)
can supply any setting; explicit flags override the file.  Its keys are the
ExperimentConfig field names: q (--Q), b_exp (--B), r (--R), g_exp (--G),
n_shift (--N), v_list (--v), prime_cutoff (--cutoff), q_low (--q-low) and
output_dir (--out); x, weight, threads, scale and format are spelt as their
flags.  A command takes only the flags it reads (--cutoff where it reads the
constants, --threads where it runs a band), while its config file may set any
key.  A file value passes its flag's parser, and run checks every setting
against its flag's choices, whatever set it.  Results go to --out, else
$VAUGHANLAB_OUT, else ./results; each run writes results.csv, results.json and
manifest.json.  The CSV files (results.csv and the CSV echo) print floats to
12 significant digits; results.json and --format json carry the full double.
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
from collections.abc import Iterator
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import NamedTuple, TextIO

import numpy as np

from . import __version__
from .arith import ArithTables, _check_limit, build_sieve, build_tables, prime_array
from .constants import (
    ConstantSet,
    ProductKind,
    _DEFAULT_CUTOFF,
    _check_cutoff,
    _primes_of_n,
    constant_set,
    restricted_product,
    t_of_n,
)
from .frmodel import FRConfig, _check_class, _check_r
from .variance import (
    Mode,
    RestrictionMode,
    VarianceRun,
    Weight,
    _check_band,
    _check_theorem3_args,
    _thread_count,
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
    "all_part",
    "excluded_part",
    "wall_time_ms",
]

CONSTANT_COLUMNS = ["name", "value", "tail_bound", "prime_cutoff", "note"]


class UsageError(ValueError):
    """Bad command line or config file contents."""


def _int_list(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v.strip()]


def _flag(flag: str, parse=str, choices: list[str] | None = None, help: str | None = None) -> dict:
    """Field metadata of one setting: its flag, the parser of its text, its allowed values, its help."""
    return {"flag": flag, "parse": parse, "choices": choices, "help": help}


@dataclass
class ExperimentConfig:
    """Flat run description.

    Every field but command is one setting: its metadata (see _flag) gives
    the command-line flag, and its name is the config-file key.
    """

    command: str = ""
    x: int | None = field(default=None, metadata=_flag("--x", int))
    q: int | None = field(default=None, metadata=_flag("--Q", int))
    b_exp: float | None = field(default=None, metadata=_flag("--B", float))
    r: float | None = field(default=None, metadata=_flag("--R", float))
    g_exp: float | None = field(default=None, metadata=_flag("--G", float))
    n_shift: int = field(default=1, metadata=_flag("--N", int))
    v_list: list[int] = field(
        default_factory=lambda: [1, 2, 3, 5, 6, 7, 10], metadata=_flag("--v", _int_list, help="comma-separated moduli")
    )
    prime_cutoff: int = field(default=_DEFAULT_CUTOFF, metadata=_flag("--cutoff", int, help="prime cutoff for constants"))
    q_low: str = field(default="0", metadata=_flag("--q-low", help="number or 'auto' (= x/R)"))
    weight: str = field(default="theta", metadata=_flag("--weight", choices=[w.value for w in Weight]))
    threads: int = field(default=0, metadata=_flag("--threads", int))
    scale: str = field(default="desk", metadata=_flag("--scale", choices=["desk", "quick"]))
    output_dir: str = field(default="", metadata=_flag("--out"))
    format: str = field(default="csv", metadata=_flag("--format", choices=["csv", "json"]))


class _Command(NamedTuple):
    help: str
    settings: tuple[str, ...]  # ExperimentConfig fields, in the order of their flags
    mode: Mode | None = None  # the variance commands' restriction


_OUT = ("output_dir", "format")
# The band commands read the constants (--cutoff) and split their moduli over threads (--threads).
_BAND = ("x", "prime_cutoff", "threads", *_OUT, "q", "b_exp", "r", "g_exp", "q_low", "weight")

# Every subcommand but report, which takes manifest paths instead of settings.
_COMMANDS = {
    "constants": _Command("print the constant table", ("prime_cutoff", *_OUT)),
    "fr-table": _Command("dump n, Lambda, F_R, delta for n <= x", ("x", *_OUT, "r", "g_exp")),
    "theorem3": _Command(
        "progression second moments of the residual", ("x", "prime_cutoff", *_OUT, "r", "g_exp", "v_list", "n_shift")
    ),
    "vaughan": _Command("banded variance over all residues", _BAND, Mode.ALL),
    "theorem5": _Command("banded variance over reduced residues", _BAND, Mode.COPRIME),
    "theorem4": _Command("banded variance over shifted-coprime residues", (*_BAND, "n_shift"), Mode.SHIFT_COPRIME),
    "bdh": _Command("classical variance against x/phi(d)", ("x", "threads", *_OUT, "q", "b_exp", "weight"), Mode.BDH),
    "suite": _Command("desk-scale battery with a merged report", ("prime_cutoff", "threads", *_OUT, "scale")),
}


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
        kwargs[key] = _parse_field(known[key], val)
    return ExperimentConfig(**kwargs)


def _parse_field(f: dataclasses.Field, val: str):
    """A config-file value through its flag's parser; run checks the choices."""
    try:
        return f.metadata.get("parse", str)(val)
    except ValueError as e:
        raise UsageError(f"bad value for {f.name}: {val!r}") from e


def _check_choices(cfg: ExperimentConfig) -> None:
    """The settings with choices hold one of them, whether set by flag, config file or caller."""
    for f in dataclasses.fields(cfg):
        choices = f.metadata.get("choices")
        if choices and getattr(cfg, f.name) not in choices:
            raise UsageError(f"{f.name} must be one of {', '.join(choices)}, got {getattr(cfg, f.name)!r}")


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
    """The F_R config with its table built: every command that takes one reads the table."""
    cfg = FRConfig(R=r, tables=_tables_for(limit))
    cfg.table()
    return cfg


def _usage(check, *args):
    """check(*args), with a ValueError it raises turned into a usage error."""
    try:
        return check(*args)
    except ValueError as e:
        raise UsageError(str(e)) from e


# Each resolver works out its value and hands it to the check of the library
# layer that owns the bound, so the CLI and the library accept the same values.


def _require_x(cfg: ExperimentConfig) -> int:
    if cfg.x is None:
        raise UsageError(f"command {cfg.command!r} requires --x")
    _usage(_check_limit, cfg.x)
    return cfg.x


def _log_power(x: int, e: float) -> float:
    """(log x)^e, or inf where the double overflows, for the bound checks to reject."""
    try:
        return math.log(x) ** e
    except OverflowError:
        return math.inf


def _resolve_q(cfg: ExperimentConfig) -> int:
    """Q, given or floor(x (log x)^-B); a B that makes the float nan or inf reaches the check unfloored."""
    if (cfg.q is None) == (cfg.b_exp is None):
        raise UsageError("give exactly one of Q (--Q) or B (--B)")
    x = _require_x(cfg)
    q = cfg.q
    if q is None:
        q = x * _log_power(x, -cfg.b_exp)
        if math.isfinite(q):
            q = int(math.floor(q))
    _usage(_check_band, x, q)
    return q


def _resolve_r(cfg: ExperimentConfig) -> float:
    """R, given or (log x)^G, a truncation level over the tables to x."""
    if (cfg.r is None) == (cfg.g_exp is None):
        raise UsageError("give exactly one of R (--R) or G (--G)")
    x = _require_x(cfg)
    r = float(cfg.r) if cfg.r is not None else _log_power(x, cfg.g_exp)
    _usage(_check_r, r, x)
    return r


def _resolve_q_low(cfg: ExperimentConfig, x: int, q: int, r: float) -> float:
    if cfg.q_low == "auto":
        q_low = x / r
    else:
        try:
            q_low = float(cfg.q_low)
        except ValueError as e:
            raise UsageError(f"q_low must be a number or 'auto', got {cfg.q_low!r}") from e
    _usage(_check_band, x, q, q_low)
    return q_low


def _resolve_shift(cfg: ExperimentConfig) -> int:
    """The theorem4 N, by restricted_product's own check: 1 <= N < 2^63, no prime factor above the cutoff."""
    _usage(_primes_of_n, cfg.n_shift, cfg.prime_cutoff)
    return cfg.n_shift


def _resolve_v_list(cfg: ExperimentConfig, x: int, r: float) -> list[int]:
    """The theorem3 classes N mod v: 1 <= v <= x and N >= 0, each v squarefree by the theorem-3 forms' check."""
    for v in cfg.v_list:
        _usage(_check_class, v, cfg.n_shift, x)
        _usage(_check_theorem3_args, x, v, r)
    return cfg.v_list


def _resolve_threads(cfg: ExperimentConfig) -> int:
    return _usage(_thread_count, cfg.threads)


def _resolve_cutoff(cfg: ExperimentConfig) -> int:
    _usage(_check_cutoff, cfg.prime_cutoff)
    return cfg.prime_cutoff


def _resolve_weight(cfg: ExperimentConfig) -> Weight:
    return _usage(Weight, cfg.weight)


def _out_dir(cfg: ExperimentConfig) -> Path:
    base = cfg.output_dir or os.environ.get(ENV_OUT, "") or "results"
    p = Path(base)
    p.mkdir(parents=True, exist_ok=True)
    return p


def _sha256(arr) -> str:
    """Digest of the array's bytes in C order, hashed in place rather than copied."""
    return hashlib.sha256(memoryview(np.ascontiguousarray(arr))).hexdigest()


def _table_bytes(held: list) -> int:
    """Summed nbytes of the numpy arrays in the dataclass fields of the held objects."""
    values = (getattr(obj, f.name) for obj in held for f in dataclasses.fields(obj))
    return sum(v.nbytes for v in values if isinstance(v, np.ndarray))


def _set_up(derived: dict, x: int, r: float | None = None) -> tuple[ArithTables, FRConfig | None]:
    """The tables for x and, given R, the F_R config and its table, timed into derived["tables_s"]."""
    t0 = time.perf_counter()
    fr = _fr_for(x, r) if r is not None else None
    tables = fr.tables if fr is not None else _tables_for(x)
    derived["tables_s"] = time.perf_counter() - t0
    if r is not None:
        derived["R"] = r
    return tables, fr


def _row(columns: list[str], **values) -> dict:
    """One output row: the given values, and "" in every other column."""
    return {c: values.get(c, "") for c in columns}


def _variance_row(run: VarianceRun) -> dict:
    terms = run.predicted_terms
    return _row(
        RESULT_COLUMNS,
        x=run.x,
        Q=run.q,
        Q_low=run.q_low,
        R=run.r or "",
        mode=run.mode.value,
        N=run.n_shift if run.mode is Mode.SHIFT_COPRIME else "",
        weight=run.weight.value,
        empirical=run.empirical,
        predicted_total=run.predicted_total,
        term_main=terms.get("log_term", terms.get("leading")),
        term_const=terms.get("const_term", terms.get("fitted_C")),
        relative_deviation=run.relative_deviation,
        relative_deviation_main=run.relative_deviation_main,
        all_part=run.all_part,
        excluded_part=run.excluded_part,
        wall_time_ms=run.wall_time_ms,
    )


def _theorem3_rows(x: int, r: float, v_list: list[int], n_shift: int, cfg_fr: FRConfig, cs: ConstantSet) -> list[dict]:
    rows = []
    for v in v_list:
        t0 = time.perf_counter()
        emp = delta_sq_progression(x, v, n_shift, cfg_fr)
        wall = (time.perf_counter() - t0) * 1e3
        pred = theorem3_prediction(x, v, n_shift, r, cs)
        coupled = theorem3_coupled_prediction(x, v, n_shift, r, cs)
        rows.append(
            _row(
                RESULT_COLUMNS,
                x=x,
                R=r,
                mode="progression",
                N=n_shift,
                v=v,
                weight="psi",
                empirical=emp,
                predicted_total=pred.total,
                predicted_coupled=coupled.total,
                term_main=pred.terms["delta_main"],
                term_r=pred.terms["r_term"],
                term_phi2=pred.terms["phi2_term"],
                term_neg=pred.terms["neg_term"],
                relative_deviation=(emp - pred.total) / pred.total if pred.total else None,
                relative_deviation_main=(emp - pred.total) / (x * math.log(x) / v),
                wall_time_ms=wall,
            )
        )
    return rows


def _constants_rows(cut: int) -> list[dict]:
    cs = constant_set(cut)
    row = functools.partial(_row, CONSTANT_COLUMNS)
    rows = [
        row(name="gamma", value=cs.gamma, tail_bound=0.0),
        row(name="logp_sum", value=cs.logp_sum, tail_bound=cs.tail_bound, prime_cutoff=cut),
        row(name="c0", value=cs.c0, tail_bound=cs.tail_bound, prime_cutoff=cut, note="1 + gamma + logp_sum"),
        row(name="c1", value=cs.c1, tail_bound=2 * cs.tail_bound, prime_cutoff=cut, note="2*c0 - 1"),
        row(name="c2", value=cs.c2, tail_bound=cs.tail_bound, prime_cutoff=cut, note="c0 - 1"),
        row(name="zeta2_inv", value=cs.zeta2_inv, tail_bound=0.0, note="6/pi^2"),
    ]
    for kind, n in [(ProductKind.P_PM1, 1), (ProductKind.P_PM1, 2), (ProductKind.P_SQ, 2), (ProductKind.P_ZETA, 1)]:
        p = restricted_product(kind, n, cut)
        rows.append(row(name=f"{kind.name}({n})", value=p.value, tail_bound=p.tail_bound, prime_cutoff=cut))
    for n in [1, 2, 3, 5, 6, 30]:
        t = t_of_n(n, cut)
        note = "" if t.meets_lower_bound else "below 1"
        rows.append(row(name=f"t({n})", value=t.value, tail_bound=t.truncation_error, prime_cutoff=cut, note=note))
    return rows


# Rows formatted or encoded at a time by the writers, so that no more than
# this many rows' text is held at once (about 0.5 MB of fr-table rows).
_ROW_CHUNK = 4096


def _column_text(rows: list[dict], column: str) -> list[str]:
    """_fmt of one column's values; a column of plain floats or ints is formatted by one map."""
    vals = [row.get(column) for row in rows]
    kinds = set(map(type, vals))
    if kinds == {float}:
        return list(map("{:.12g}".format, vals))
    return list(map(str if kinds == {int} else _fmt, vals))


def _write_csv(stream, columns: list[str], rows: list[dict]) -> None:
    """The header and the rows, formatted a column of _ROW_CHUNK rows at a time."""
    w = csv.writer(stream)
    w.writerow(columns)
    for i in range(0, len(rows), _ROW_CHUNK):
        chunk = rows[i : i + _ROW_CHUNK]
        w.writerows(zip(*(_column_text(chunk, c) for c in columns)))


def _rows_json(rows: list[dict], depth: int) -> str:
    """json.dumps(rows, indent=2, sort_keys=True, default=_fmt) nested depth levels deep.

    The indenting encoder is pure Python, so the rows go through the C
    encoder in one call, with the row items' indented separator between all
    items, and the row boundaries are then re-indented.  The rows are flat
    and an encoded string holds no raw newline, so "}," followed by that
    separator and "{" occurs only between two rows.
    """
    if not rows:
        return "[]"
    pad = "\n" + "  " * (depth + 1)
    item = pad + "  "
    text = json.JSONEncoder(sort_keys=True, default=_fmt, separators=("," + item, ": ")).encode(rows)
    body = text[2:-2].replace("}," + item + "{", pad + "}," + pad + "{" + item)
    return "[" + pad + "{" + item + body + pad + "}\n" + "  " * depth + "]"


def _rows_json_pieces(rows: list[dict], depth: int) -> Iterator[str]:
    """_rows_json(rows, depth) in pieces of at most _ROW_CHUNK rows; they join to it.

    Each chunk's array is stripped of its brackets, and the chunks joined by
    ",": the text between two rows of one array.  Every piece starts with
    "[", "," or a line break and ends with "}" or "]", so a line break and the
    indent after it never straddle two pieces.
    """
    if not rows:
        yield "[]"
        return
    close = "\n" + "  " * depth + "]"
    for i in range(0, len(rows), _ROW_CHUNK):
        yield ("," if i else "[") + _rows_json(rows[i : i + _ROW_CHUNK], depth)[1 : -len(close)]
    yield close


def _write_json(path: Path, command: str, columns: list[str], rows: list[dict], echo: TextIO | None = None) -> None:
    """The indented, key-sorted results.json; "rows" sorts last, after "columns" and "command".

    The rows are written, and echoed one level out to echo when one is given
    (the --format json output), a chunk at a time.
    """
    head = json.dumps({"columns": columns, "command": command}, indent=2, sort_keys=True)
    with path.open("w") as fh:
        fh.write(head[:-2] + ',\n  "rows": ')
        for piece in _rows_json_pieces(rows, 1):
            fh.write(piece)
            if echo is not None:
                # each line break of a piece is followed by at least its
                # two-space indent, and an encoded string holds no raw newline
                echo.write(piece.replace("\n  ", "\n"))
        fh.write("\n}\n")
    if echo is not None:
        echo.write("\n")


def _write_manifest(out: Path, cfg: ExperimentConfig, derived: dict, checksums: dict, results: list[str]) -> RunManifest:
    manifest = RunManifest(
        config=dataclasses.asdict(cfg),
        derived=derived,
        version=__version__,
        timestamp=datetime.now(timezone.utc).isoformat(),
        checksums=checksums,
        results=results,
    )
    (out / "manifest.json").write_text(manifest.to_json() + "\n")
    return manifest


def run(cfg: ExperimentConfig) -> RunManifest:
    """Execute one configured run, write its result files, return the manifest.

    Every value is resolved before any table is built or directory made.
    """
    _check_choices(cfg)
    if cfg.command == "suite":
        return _run_suite(cfg)
    if cfg.command == "report":
        raise UsageError("report takes manifest paths, not a run config")
    if cfg.command not in _COMMANDS:
        raise UsageError(f"unknown command {cfg.command!r}")

    # a command resolves, and records, only the settings it reads
    settings = _COMMANDS[cfg.command].settings
    cut = _resolve_cutoff(cfg) if "prime_cutoff" in settings else None
    derived: dict = {"tables_s": 0.0}
    if "threads" in settings:
        derived["threads"] = _resolve_threads(cfg)
    mode = _COMMANDS[cfg.command].mode
    tables = fr = None
    if cfg.command == "constants":
        columns, rows = CONSTANT_COLUMNS, _constants_rows(cut)
    elif cfg.command == "fr-table":
        x, r = _require_x(cfg), _resolve_r(cfg)
        tables, fr = _set_up(derived, x, r)
        lam, t = tables.lam[1 : x + 1].tolist(), fr.table()[1 : x + 1].tolist()
        columns = ["n", "lambda", "fr", "delta"]
        rows = [{"n": n, "lambda": a, "fr": b, "delta": a - b} for n, a, b in zip(range(1, x + 1), lam, t)]
    elif cfg.command == "theorem3":
        x, r = _require_x(cfg), _resolve_r(cfg)
        if r > x ** (1.0 / 3.0) * (1 + 1e-12):
            raise UsageError(
                f"theorem3 requires the hypothesis R <= x^(1/3): got R = {r:g}, x^(1/3) = {x ** (1/3):.6g}"
            )
        v_list, n_shift = _resolve_v_list(cfg, x, r), cfg.n_shift
        tables, fr = _set_up(derived, x, r)
        columns, rows = RESULT_COLUMNS, _theorem3_rows(x, r, v_list, n_shift, fr, constant_set(cut))
    elif mode is Mode.BDH:
        x, q, weight = _require_x(cfg), _resolve_q(cfg), _resolve_weight(cfg)
        derived["Q"] = q
        tables, _ = _set_up(derived, x)
        vrun = bdh_variance(x, q, tables, threads=derived["threads"], weight=weight)
        columns, rows = RESULT_COLUMNS, [_variance_row(vrun)]
    else:
        x, q, weight, r = _require_x(cfg), _resolve_q(cfg), _resolve_weight(cfg), _resolve_r(cfg)
        q_low = _resolve_q_low(cfg, x, q, r)
        restriction = RestrictionMode(mode, _resolve_shift(cfg) if mode is Mode.SHIFT_COPRIME else 0)
        derived.update(Q=q, Q_low=q_low)
        tables, fr = _set_up(derived, x, r)
        vrun = variance_sum(
            x, q, fr, restriction, weight=weight, q_low=q_low, threads=derived["threads"], constants=constant_set(cut)
        )
        columns, rows = RESULT_COLUMNS, [_variance_row(vrun)]

    if tables is None:
        checksums, held = {"primes_sha256": _sha256(prime_array(cut))}, []
    else:
        checksums, held = {"lambda_sha256": _sha256(tables.lam)}, [tables, tables.sieve]
    if fr is not None:
        checksums["fr_sha256"] = _sha256(fr.table())
        held.append(fr)
    derived["table_bytes"] = _table_bytes(held)
    out = _out_dir(cfg)
    with (out / "results.csv").open("w", newline="") as fh:
        _write_csv(fh, columns, rows)
    _write_json(out / "results.json", cfg.command, columns, rows, sys.stdout if cfg.format == "json" else None)
    if cfg.format != "json":
        _write_csv(sys.stdout, columns, rows)
    # ru_maxrss is in KiB on Linux; the peak of the whole process, the writers included.
    derived["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return _write_manifest(out, cfg, derived, checksums, ["results.csv", "results.json"])


_SUITES = {
    "desk": [
        ("constants", {}),
        ("theorem3", {"x": 10**6, "r": 50.0, "v_list": [1, 2, 3, 5, 6, 7, 10], "n_shift": 1}),
        ("vaughan", {"x": 10**5, "q": 10**4, "r": 30.0, "q_low": "auto"}),
        ("theorem5", {"x": 10**5, "q": 10**4, "r": 30.0, "q_low": "auto"}),
        ("theorem4", {"x": 10**5, "q": 10**4, "r": 30.0, "q_low": "auto", "n_shift": 2}),
        ("bdh", {"x": 10**4, "q": 10**3}),
    ],
    "quick": [
        ("constants", {"prime_cutoff": 10**5}),
        ("theorem3", {"x": 10**4, "r": 10.0, "v_list": [1, 2, 3, 5, 6], "n_shift": 1}),
        ("vaughan", {"x": 10**4, "q": 2000, "r": 10.0, "q_low": "auto"}),
        ("theorem5", {"x": 10**4, "q": 2000, "r": 10.0, "q_low": "auto"}),
        ("theorem4", {"x": 10**4, "q": 2000, "r": 10.0, "q_low": "auto", "n_shift": 2}),
        ("bdh", {"x": 10**3, "q": 100}),
    ],
}


def _run_suite(cfg: ExperimentConfig) -> RunManifest:
    # The plan's runs share the suite's cutoff and threads: check them before any directory is made.
    _resolve_cutoff(cfg)
    _resolve_threads(cfg)
    out = _out_dir(cfg)
    manifest_paths = []
    for command, overrides in _SUITES[cfg.scale]:
        # Q and R come from the plan alone, never from the suite's own config
        fields = {"q": None, "b_exp": None, "r": None, "g_exp": None, **overrides}
        run(dataclasses.replace(cfg, command=command, output_dir=str(out / command), **fields))
        manifest_paths.append(str(out / command / "manifest.json"))
    text = report(manifest_paths)
    (out / "report.txt").write_text(text)
    manifest = _write_manifest(out, cfg, {"runs": list(manifest_paths)}, {}, ["report.txt"] + manifest_paths)
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
                for part in ("all_part", "excluded_part"):
                    if row.get(part) not in (None, ""):
                        line += f" {part}={row[part]}"
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
    meta = {f.name: f.metadata for f in dataclasses.fields(ExperimentConfig)}
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--config", type=str, default=None, help="flat key = value config file")
        for key in command.settings:
            m = meta[key]
            p.add_argument(m["flag"], dest=key, type=m["parse"], choices=m["choices"], default=None, help=m["help"])
    p = sub.add_parser("report", help="merge manifests into a comparison report")
    p.add_argument("manifests", nargs="+")
    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    cfg = ExperimentConfig()
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise UsageError(f"config file not found: {args.config}")
        cfg = config_from_text(path.read_text())
    cfg.command = args.command
    for key in _COMMANDS[args.command].settings:
        if getattr(args, key) is not None:
            setattr(cfg, key, getattr(args, key))
    return cfg


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
