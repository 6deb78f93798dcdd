import pytest

from galois_moebius.errors import DomainError
from galois_moebius.verify import SUITES, CheckResult, run_all, run_suite


def test_each_suite_passes():
    for name in SUITES:
        results = run_suite(name, seed=0)
        assert results
        for r in results:
            assert isinstance(r, CheckResult)
            assert r.suite == name
            assert r.ok, f"{name} {r.name}: {r.details}"


def test_run_all_covers_every_suite():
    results = run_all(seed=0)
    assert {r.suite for r in results} == set(SUITES)
    assert all(r.ok for r in results)


def test_suite_deterministic_for_seed():
    a = run_suite("axioms", seed=3)
    b = run_suite("axioms", seed=3)
    assert a == b
    # details may legitimately coincide across seeds, pass status must not flap
    c = run_suite("axioms", seed=4)
    assert all(r.ok for r in c)


def test_unknown_suite_rejected():
    with pytest.raises(DomainError):
        run_suite("nonsense")
