#!/usr/bin/env python3
"""Fold interleaved parent/change benchmark runs into one BENCH_<label>.json.

    python3 scripts/bench_snapshot.py --label progression \\
        --parent ../parent/perfbench/out/*.json --change perfbench/out/*.json \\
        --parent-rev "$(git rev-parse HEAD~1)" --change-rev "$(git rev-parse HEAD)" \\
        --note "2 vCPU VM, shared host"

Every argument is a result file written by perfbench/run.py. Runs of the two
sides are paired by (workload, seed, trace), so run each seed once per side,
alternating which side goes first. The snapshot, written to the root of the
checkout, holds per workload:

- for each end-to-end metric of BENCHMARK.json (untraced runs): the median
  and quartiles of each side, the change/parent ratio of the medians, the
  pairs the change won, and whether the gap of the medians exceeds the
  distance between the parent's quartiles;
- for each per-layer metric (traced runs): the median of each side and the
  change/parent ratio of the two (null where the parent's median is 0), so
  the snapshot shows in which layer a change of an end-to-end metric sits;
- attempted and failed checks of each side;
- the seeds of the pairs and which side ran first in each.

It also records both git revisions, the run context the runs share (nproc,
memory, Python and numpy versions, threads, the measurement note) and --note.
Runs made in a tree that is not a git checkout record no revision; give it
with --parent-rev and --change-rev.  A given revision must be a prefix of
every revision that the side's runs did record.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
# What perfbench/run.py records as the revision of a tree without .git.
NO_REVISION = "unknown (not a git checkout)"


def spread(values: list[float]) -> dict[str, float]:
    """Median and inclusive quartiles; a single run is its own quartiles."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def load_side(paths: list[str]) -> dict[tuple[str, int, int], dict]:
    runs = {}
    for path in paths:
        res = json.loads(Path(path).read_text())
        key = (res["workload"], res["seed"], res["trace"])
        if key in runs:
            sys.exit(f"two runs for {key}: keep one file per workload, seed and trace")
        res["mtime"] = Path(path).stat().st_mtime
        runs[key] = res
    return runs


def one_value(values, what: str):
    """The value all runs share; refuses runs that disagree on it."""
    distinct = set(values)
    if len(distinct) != 1:
        sys.exit(f"runs disagree on {what}: {sorted(distinct)}")
    return distinct.pop()


def side_revision(runs: dict, side: str, given: str | None) -> str:
    """The side's revision: the one its runs recorded, else the given one; refuses a contradiction."""
    recorded = {r["context"]["git_revision"] for r in runs.values()}
    if given is None:
        return one_value(recorded, f"the {side} revision")
    known = recorded - {NO_REVISION}
    wrong = sorted(rev for rev in known if not rev.startswith(given))
    if wrong:
        sys.exit(f"--{side}-rev {given} contradicts the revisions the {side} runs recorded: {wrong}")
    return one_value(known, f"the {side} revision") if known else given


def e2e_summary(pairs: list[dict], metric: dict) -> dict:
    name = metric["name"]
    values = {s: [p[s]["end_to_end"][name] for p in pairs] for s in SIDES}
    side = {s: spread(values[s]) for s in SIDES}
    lower = metric["better"] == "lower"
    wins = sum(
        (c < p) if lower else (c > p) for p, c in zip(values["parent"], values["change"])
    )
    gain = side["parent"]["median"] - side["change"]["median"]
    return {
        "unit": metric["unit"],
        "better": metric["better"],
        "bound": metric["bound"],
        **side,
        "change_over_parent": side["change"]["median"] / side["parent"]["median"],
        "change_wins": wins,
        "pairs": len(pairs),
        "gain_exceeds_parent_iqr": (gain if lower else -gain)
        > side["parent"]["q3"] - side["parent"]["q1"],
        "values": values,
    }


def layer_summary(traced: list[dict], name: str) -> dict:
    side = {s: statistics.median(p[s]["per_layer"][name] for p in traced) for s in SIDES}
    ratio = side["change"] / side["parent"] if side["parent"] else None
    return {**side, "change_over_parent": ratio}


def workload_summary(pairs: list[dict], bench: dict) -> dict:
    plain = [p for p in pairs if p["trace"] == 0]
    traced = [p for p in pairs if p["trace"] == 1]
    out = {
        "pairs": [
            {
                "seed": p["seed"],
                "trace": p["trace"],
                "first": min(SIDES, key=lambda s: p[s]["mtime"]),
            }
            for p in pairs
        ],
        "checks": {
            s: {
                "attempted": sum(p[s]["attempted"] for p in pairs),
                "failed": sum(p[s]["failed"] for p in pairs),
            }
            for s in SIDES
        },
    }
    if plain:
        out["end_to_end"] = {m["name"]: e2e_summary(plain, m) for m in bench["end_to_end"]}
    if traced:
        out["per_layer"] = {m["name"]: layer_summary(traced, m["name"]) for m in bench["per_layer"]}
    return out


def snapshot(
    parent: list[str], change: list[str], note: str, revisions: dict[str, str | None] | None = None
) -> dict:
    """The snapshot of the paired runs; revisions gives a side's revision where its runs lack one."""
    revisions = revisions or {}
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = {"parent": load_side(parent), "change": load_side(change)}
    if runs["parent"].keys() != runs["change"].keys():
        unpaired = sorted(runs["parent"].keys() ^ runs["change"].keys())
        sys.exit(f"runs without a counterpart on the other side: {unpaired}")
    workloads: dict[str, list[dict]] = {}
    for key in sorted(runs["parent"]):
        workload, seed, trace = key
        pair = {"seed": seed, "trace": trace, **{s: runs[s][key] for s in SIDES}}
        workloads.setdefault(workload, []).append(pair)
    every = [r for s in SIDES for r in runs[s].values()]
    shared = ("nproc", "mem_total_bytes", "python", "numpy", "threads", "note")
    return {
        "revisions": {s: side_revision(runs[s], s, revisions.get(s)) for s in SIDES},
        "context": {f: one_value((r["context"][f] for r in every), f) for f in shared},
        "machine_note": note,
        "run_seconds": one_value((r["seconds"] for r in every), "--seconds"),
        "workloads": {w: workload_summary(pairs, bench) for w, pairs in workloads.items()},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="names the output BENCH_<label>.json")
    ap.add_argument("--parent", nargs="+", required=True, help="result files of the parent revision")
    ap.add_argument("--change", nargs="+", required=True, help="result files of the change")
    ap.add_argument("--parent-rev", help="git revision of the parent runs, where they recorded none")
    ap.add_argument("--change-rev", help="git revision of the change runs, where they recorded none")
    ap.add_argument("--note", default="", help="free text on the machine the runs shared")
    args = ap.parse_args()
    snap = snapshot(args.parent, args.change, args.note, {"parent": args.parent_rev, "change": args.change_rev})
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps({"label": args.label, **snap}, indent=1) + "\n")
    for workload, summary in snap["workloads"].items():
        for name, m in summary.get("end_to_end", {}).items():
            print(
                f"{workload:<12} {name:<12} {m['parent']['median']:>10.4g} -> "
                f"{m['change']['median']:>10.4g} {m['unit']:<3} "
                f"(x{m['change_over_parent']:.3f}, change won {m['change_wins']}/{m['pairs']})"
            )
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
