"""End-to-end runs of the scripts under scripts/."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_progression_deviation_table_prints_each_class_once():
    # v = 2 has one coprime class, N = 1; the table must not print it again
    # under another representative such as N = 3
    script = ROOT / "scripts" / "progression_deviation_table.py"
    out = subprocess.run(
        [sys.executable, str(script), "--x", "10000", "--R", "10", "--v", "1,2,6"],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    rows = [line.split() for line in out.splitlines()[2:]]
    classes = [(int(v), int(n) % int(v)) for v, n, *_ in rows]
    assert len(classes) == len(set(classes)), classes
    assert sorted(classes) == [(1, 0), (2, 0), (2, 1), (6, 0), (6, 1), (6, 5)]


def test_output_digest_prints_one_hash_per_workload():
    # one sha256 per workload over every output of the worker; the same
    # inputs give the same hashes, and another seed changes them
    script = ROOT / "scripts" / "output_digest.py"

    def digests(*seeds, workloads=()):
        picked = ["--workloads", *workloads] if workloads else []
        out = subprocess.run(
            [sys.executable, str(script), "--scale", "tiny", "--seeds", *map(str, seeds), *picked],
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        return dict(line.split() for line in out.splitlines())

    first = digests(0, 1)
    assert list(first) == ["band", "tables", "progression"]
    assert all(len(h) == 64 and int(h, 16) >= 0 for h in first.values())
    assert digests(0, 1) == first
    assert all(digests(1, 0)[w] != h for w, h in first.items())
    # --workloads runs only the ones named, printed in perfbench's order,
    # each with the hash it has among all three
    assert digests(0, 1, workloads=["tables"]) == {"tables": first["tables"]}
    picked = digests(0, 1, workloads=["progression", "band"])
    assert list(picked) == ["band", "progression"] and picked == {w: first[w] for w in picked}


def _bench_snapshot():
    spec = importlib.util.spec_from_file_location("bench_snapshot", ROOT / "scripts" / "bench_snapshot.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bench_runs(tmp_path, side: str, revisions: list[str], trace: int = 0, layers=None) -> list[str]:
    """perfbench result files of one side, one seed per revision, with the fields the snapshot reads.

    A traced run (trace=1) records the per-layer values layers(seed).
    """
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    paths = []
    for seed, rev in enumerate(revisions):
        run = {
            "workload": "band",
            "seed": seed,
            "trace": trace,
            "seconds": 30,
            "attempted": 10,
            "failed": 0,
            "end_to_end": {m["name"]: 1.0 + seed for m in bench["end_to_end"]},
            "context": {
                "nproc": 2, "mem_total_bytes": 1, "python": "3", "numpy": "2", "threads": 1, "note": "",
                "git_revision": rev,
            },
        }
        if trace:
            run["per_layer"] = layers(seed)
        path = tmp_path / f"{side}-{seed}-trace{trace}.json"
        path.write_text(json.dumps(run))
        paths.append(str(path))
    return paths


def test_bench_snapshot_takes_the_revisions_runs_lack(tmp_path):
    snap = _bench_snapshot()
    full = "0123456789abcdef0123456789abcdef01234567"
    unknown = _bench_runs(tmp_path, "parent", [snap.NO_REVISION] * 2)
    known = _bench_runs(tmp_path, "change", [full, snap.NO_REVISION])
    # no revision given: the runs' own, which must agree
    with pytest.raises(SystemExit, match="runs disagree on the change revision"):
        snap.snapshot(unknown, known, "")
    # a given revision fills in what the runs lack; a prefix of a recorded
    # one gives way to the recorded full hash
    got = snap.snapshot(unknown, known, "", {"parent": "fedcba9", "change": full[:7]})
    assert got["revisions"] == {"parent": "fedcba9", "change": full}
    assert got["workloads"]["band"]["end_to_end"]["solve_s"]["pairs"] == 2
    # a given revision that a run contradicts is refused
    with pytest.raises(SystemExit, match="--change-rev fedcba9 contradicts"):
        snap.snapshot(unknown, known, "", {"parent": None, "change": "fedcba9"})


def test_bench_snapshot_puts_each_layer_ratio_beside_its_medians(tmp_path):
    snap = _bench_snapshot()
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    sieve = "arith.build_sieve_s"

    def layers(scale):
        # layer i reads scale (i + 1) (seed + 1); the parent's sieve reads 0
        return lambda seed: {n: (i + 1) * (seed + 1) * (scale if n != sieve or scale != 1 else 0) for i, n in enumerate(names)}

    parent = _bench_runs(tmp_path, "parent", ["fedcba9"] * 3) + _bench_runs(
        tmp_path, "parent", ["fedcba9"] * 3, trace=1, layers=layers(1)
    )
    change = _bench_runs(tmp_path, "change", ["0123456"] * 3) + _bench_runs(
        tmp_path, "change", ["0123456"] * 3, trace=1, layers=layers(0.5)
    )
    got = snap.snapshot(parent, change, "")["workloads"]["band"]["per_layer"]
    assert list(got) == names
    for i, name in enumerate(names):
        # the medians over seeds 0, 1 and 2 are the values at seed 1
        want = {"parent": 2 * (i + 1), "change": (i + 1), "change_over_parent": 0.5}
        if name == sieve:
            want.update(parent=0, change_over_parent=None)  # no ratio to a zero
        assert got[name] == want, name
        assert list(got[name]) == ["parent", "change", "change_over_parent"]
