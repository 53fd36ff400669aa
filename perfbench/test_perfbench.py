"""Tests of the benchmark itself, on instances small enough to run in
seconds:

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import child  # noqa: E402
from layers import COUNT_METRICS, SELF_BUCKETS, Tracer  # noqa: E402
from workloads import Workload, check_leads, check_stats, check_verify, oracle_leads  # noqa: E402

SMALL_GB = Workload("small_gb", "gb", "matrix", 3, 2, 4, 2, 8)
SMALL_CRIT = Workload("small_crit", "gb", "system", 3, 1, 3, 3, 9)
SMALL_VERIFY = Workload("small_verify", "verify", "matrix", 3, 2, 4, 2, 8)


def _setup(w, tmp_path, seed=7):
    files = child.set_up(w, seed, tmp_path)
    oracle = tmp_path / "oracle.json"
    if w.command == "gb":
        oracle.write_text(json.dumps(oracle_leads(w, files["instance"])))
    return files, oracle


def test_traced_counts_repeat_and_self_times_add_up(tmp_path):
    files, oracle = _setup(SMALL_GB, tmp_path)
    per_call = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            rec = child.one_call(SMALL_GB, files, tracer)
        finally:
            tracer.uninstall()
        assert rec["problems"] == []
        problems, totals = child.check(SMALL_GB, files, oracle, "-")
        assert problems == []
        m, problems = child.traced_metrics(SMALL_GB, tracer.spans, totals)
        assert problems == []  # includes the self-time sum check
        root = tracer.spans[0]
        assert sum(m[b] for b in SELF_BUCKETS) == pytest.approx(root[3] - root[2], abs=1e-9)
        assert m["sig_gb.rows_skipped_h"] > 0
        assert m["sig_gb.rows_skipped_h"] + m["sig_gb.rows_skipped_f5"] == totals["rows_skipped"]
        assert m["determinantal.h_size"] > 0 and m["macaulay.echelonize_s"] > 0
        per_call.append(m)
    assert {k: per_call[0][k] for k in COUNT_METRICS} == {k: per_call[1][k] for k in COUNT_METRICS}

    import detf5.cli
    import detf5.macaulay

    assert not hasattr(detf5.cli.crit_gb, "__wrapped__")
    assert not hasattr(detf5.macaulay.MacaulayMatrix.echelonize, "__wrapped__")


@pytest.mark.parametrize("w", [SMALL_GB, SMALL_CRIT])
def test_gb_check_passes_and_catches_wrong_output(w, tmp_path):
    files, oracle = _setup(w, tmp_path)
    assert child.one_call(w, files)["problems"] == []
    leads = json.loads(oracle.read_text())
    assert check_stats(w, files)[0] == [] and check_leads(w, files, leads) == []

    basis = files["output"].read_text().splitlines()
    files["output"].write_text("\n".join(basis[:-1]) + "\n")
    assert check_leads(w, files, leads)
    assert child.check(w, files, oracle, "-")[0]
    files["output"].write_text("\n".join(basis) + "\n")

    stats = files["stats"].read_text().splitlines()
    first = json.loads(stats[0])
    stats[0] = json.dumps({**first, "rank": first["rank"] - 1, "zero_reductions": first["zero_reductions"] + 1})
    files["stats"].write_text("\n".join(stats) + "\n")
    assert any("predicted" in p for p in check_stats(w, files)[0])


def test_verify_check_passes_and_catches_a_mismatch(tmp_path):
    files, _ = _setup(SMALL_VERIFY, tmp_path)
    assert child.one_call(SMALL_VERIFY, files)["problems"] == []
    assert check_verify(SMALL_VERIFY, files)[0] == []
    report = files["output"].read_text()
    files["output"].write_text(report.replace("yes", "NO", 1))
    assert check_verify(SMALL_VERIFY, files)[0]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    cmd = json.loads((tmp_path / "BENCHMARK.json").read_text())["command"]
    args = ["--workload", "minors_ref", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd + args, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
