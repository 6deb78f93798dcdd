"""Tests of the benchmark itself: its count formulas, that every checker
rejects a corrupted result, a quick pass of every workload, the traced run
and the refusal to run without the package source.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import child  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from galois_moebius import (  # noqa: E402
    Mat2,
    Poly,
    Semilinear,
    build_tower,
    census,
    count_irreducibles,
    monic_irreducibles,
)


def test_counts_match_known_values():
    assert [checks.moebius(n) for n in range(1, 11)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]
    assert checks.irreducible_count(2, 5) == 6
    assert checks.irreducible_count(3, 5) == 48
    assert checks.irreducible_count(16, 4) == (16**4 - 16**2) // 4
    assert checks.scrim_count(2, 9) == 56
    assert checks.srim_count(5, 5) == (5**5 - 5) // 10
    assert checks.subfield_count(2, 1, 2, 7) == 18
    assert checks.subfield_count(4, 1, 2, 4) == 0  # splits over F_16
    for size in (2, 3, 4, 5, 9):
        for k in range(1, 9):
            assert checks.irreducible_count(size, k) == count_irreducibles(size, k)


@pytest.fixture(scope="module")
def f4_case():
    tower = build_tower(2, 1, 2)
    g = Semilinear(Mat2(tower, 0, 1, 1, 0), 1)
    h, g1 = workloads.general_conjugate(tower, random.Random(3), g)
    fixed = census(g, [5]).entries[0].polynomials
    fixed1 = census(g1, [5]).entries[0].polynomials
    outsider = next(
        Poly(tower.top, cs) for cs in monic_irreducibles(tower.top, 5) if Poly(tower.top, cs) not in fixed
    )
    return tower, g, h, g1, fixed, fixed1, outsider


def test_fixed_set_checker_rejects_corruption(f4_case):
    tower, g, h, g1, fixed, fixed1, outsider = f4_case
    want = checks.scrim_count(2, 5)
    assert len(fixed) == want
    assert checks.check_fixed_set(g, 5, fixed, want) == []
    assert checks.check_fixed_set(g, 5, fixed[1:], want)  # dropped
    assert checks.check_fixed_set(g, 5, fixed + (outsider,), None)  # extra, not invariant
    assert checks.check_fixed_set(g, 5, fixed, want + 1)  # wrong count
    assert checks.check_fixed_set(g, 5, fixed + fixed[:1], None)  # repeated
    reducible = Poly(tower.top, [1, 0, 0, 0, 0, 1])  # x**5 + 1, divisible by x + 1
    assert checks.check_fixed_set(g, 5, fixed[1:] + (reducible,), None)


def test_conjugate_checker_rejects_corruption(f4_case):
    tower, g, h, g1, fixed, fixed1, outsider = f4_case
    assert checks.check_conjugate(h, fixed, fixed1) == []
    assert checks.check_conjugate(h, fixed, fixed1[1:])
    assert checks.check_conjugate(h, fixed, fixed1 + (outsider,))
    assert checks.check_conjugate(h, fixed[1:], fixed1)


def test_family_checkers_reject_corruption():
    from galois_moebius import construct_scrim, scrim_polynomials, srim_polynomials

    tower = build_tower(2, 1, 2)
    fam = scrim_polynomials(tower, 5)
    assert checks.check_scrim_list(tower, 5, fam) == []
    assert checks.check_scrim_list(tower, 5, fam[1:])
    assert checks.check_scrim_list(tower, 5, fam[::-1])
    pair = construct_scrim(tower, 5)
    assert checks.check_scrim_pair(tower, 5, pair, fam) == []
    assert checks.check_scrim_pair(tower, 5, pair, fam[1:])
    assert checks.check_scrim_pair(tower, 5, (pair[0], pair[0]), fam)
    srim = srim_polynomials(tower.mid, 10)
    assert checks.check_srim_list(tower.mid, 10, srim) == []
    assert checks.check_srim_list(tower.mid, 10, srim[1:])
    assert checks.check_srim_list(tower.mid, 10, srim + srim[:1])
    assert checks.check_involution_pairs([("1,1", "1,1")]) == []
    assert checks.check_involution_pairs([("1,1", "1,1"), ("1,0,1", "0,1,1")])


def test_listing_checker_rejects_wrong_count(monkeypatch):
    level = build_tower(3, 1, 2).top
    assert checks.check_listing_count(level, 3) == []
    monkeypatch.setattr(checks, "monic_irreducibles", lambda lvl, k: ((1,),) * 5)
    assert checks.check_listing_count(level, 3)


@pytest.mark.parametrize("workload", run.workload_names())
def test_quick_pass_has_no_failures(workload):
    doc = child.run_round(workload, 7, "quick")
    assert len(doc["ops"]) >= 8
    assert [r for r in doc["ops"] if r["error"] or r["problems"]] == []


def test_inputs_follow_the_seed():
    names = [op.name for op in workloads.build_enum(5, quick=True)]
    assert names == [op.name for op in workloads.build_enum(6, quick=True)]


@pytest.mark.parametrize("workload", run.workload_names())
def test_traced_quick_round(workload):
    doc, _ = run.spawn(workload, 7, "quick-traced")
    trace = doc["trace"]
    assert trace["missing"] == []
    assert trace["self_over_op"] == []
    for rec in doc["ops"]:
        assert rec["layer_self_s"] <= rec["s"]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["per_layer"]}
    assert names == set(trace["metrics"]) | {"trace.overhead_s", "trace.missing_targets"}


def test_missing_target_is_reported_not_fatal():
    code = (
        "import sys; sys.path[:0] = [sys.argv[1]];"
        "import tracer; tracer.TARGETS += (('polyring', 'no_such_layer', 'frame'),);"
        "t = tracer.Tracer().install(); print(t.missing)"
    )
    proc = subprocess.run([sys.executable, "-c", code, str(HERE)], cwd=ROOT, env=run.child_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "polyring.no_such_layer" in proc.stdout


def test_run_refuses_without_package_source():
    run.OUT.mkdir(exist_ok=True)
    bare = run.OUT / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "enum-fixpoly", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True,
                          timeout=180)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
