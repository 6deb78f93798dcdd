import hashlib
import json

import pytest

from galois_moebius.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_act_text(capsys):
    code, out, err = run(
        capsys,
        "act", "--p", "2", "--n", "2",
        "--matrix", "[1,0];[1,0];[0,0];[1,0]",
        "--poly", "[1,0],[1,0],[0,0],[1,0]",
    )
    assert code == 0
    assert out.strip() == "[1,0],[0,0],[1,0],[1,0]"


def test_act_json(capsys):
    code, out, err = run(
        capsys,
        "act", "--p", "2", "--n", "2", "--output", "json",
        "--matrix", "1;1;0;1", "--poly", "1,1,0,1",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["command"] == "act"
    assert doc["millis"] is None
    assert doc["result"]["poly"] == "[1,0],[0,0],[1,0],[1,0]"
    assert doc["params"]["frob"] == 2


def test_act_deterministic_bytes(capsys):
    argv = ("act", "--p", "3", "--n", "2", "--output", "json",
            "--matrix", "0;1;1;0", "--poly", "1,0,0,1")
    first = run(capsys, *argv)
    second = run(capsys, *argv)
    assert first == second


def test_timing_flag(capsys):
    code, out, _ = run(
        capsys,
        "act", "--p", "2", "--n", "2", "--output", "json", "--timing",
        "--matrix", "1;1;0;1", "--poly", "1,1,0,1",
    )
    doc = json.loads(out)
    assert isinstance(doc["millis"], int)


def test_invariants_enum(capsys):
    code, out, _ = run(
        capsys,
        "invariants", "--p", "2", "--n", "2", "--output", "json",
        "--matrix", "1;0;0;1", "--frob", "1", "--degree", "3",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["count"] == 2
    assert doc["params"]["method"] == "enum"
    assert doc["result"]["plan"]["feasible"] is True
    assert set(doc["result"]["polynomials"]) == {
        "[1,0],[1,0],[0,0],[1,0]",
        "[1,0],[0,0],[1,0],[1,0]",
    }


def test_invariants_plan_json(capsys):
    code, out, _ = run(
        capsys,
        "invariants", "--p", "2", "--n", "2", "--matrix", "0;1;1;0",
        "--frob", "1", "--degree", "5", "--output", "json",
    )
    assert code == 0
    assert json.loads(out)["result"]["plan"] == {
        "factor_order": 1,
        "feasible": True,
        "frob_index": 1,
        "reason": "",
        "s": 5,
        "shifts": [3],
        "span": 2,
        "twists": [1],
    }


def test_invariants_swap_at_degree_13_keeps_its_plan(capsys):
    # the conjugation route lists the fixed set, the plan still reports
    # the fixing polynomial the factoring route would have used
    code, out, _ = run(
        capsys,
        "invariants", "--p", "2", "--e", "1", "--n", "2", "--matrix", "0;1;1;0",
        "--frob", "1", "--degree", "13", "--method", "enum", "--output", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["params"]["method"] == "enum"
    assert doc["result"]["plan"] == {
        "factor_order": 1,
        "feasible": True,
        "frob_index": 1,
        "reason": "",
        "s": 13,
        "shifts": [7],
        "span": 2,
        "twists": [1],
    }
    assert doc["result"]["count"] == len(doc["result"]["polynomials"]) == 630


def test_invariants_pure_frobenius_within_cap(capsys):
    cases = [
        # [I, sigma] over F_9 at degree 5: the F_3 irreducibles, 3**5 candidates
        ("3", "2", "1", "5", 48),
        # [I, sigma^2] over F_16 at degree 7: the F_4 irreducibles, 4**7
        # candidates, a subfield that is no tower level
        ("2", "4", "2", "7", 2340),
    ]
    for p, n, frob, degree, count in cases:
        code, out, _ = run(
            capsys,
            "invariants", "--p", p, "--n", n, "--output", "json",
            "--matrix", "1;0;0;1", "--frob", frob, "--degree", degree,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["params"]["method"] == "enum"
        assert doc["result"]["count"] == len(doc["result"]["polynomials"]) == count


def test_invariants_census_fallback(capsys):
    # degree 2 is below the enumeration theory, auto falls back to the scan
    code, out, _ = run(
        capsys,
        "invariants", "--p", "2", "--n", "2", "--output", "json",
        "--matrix", "0;1;1;0", "--frob", "1", "--degree", "2",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["params"]["method"] == "census"
    assert "plan" not in doc["result"]


def test_invariants_methods_agree(capsys):
    base = ("invariants", "--p", "2", "--n", "2", "--output", "json",
            "--matrix", "[1,1];[0,0];[0,1];[0,1]", "--frob", "1", "--degree", "6")
    _, out_e, _ = run(capsys, *base, "--method", "enum")
    _, out_c, _ = run(capsys, *base, "--method", "census")
    enum_doc, census_doc = json.loads(out_e), json.loads(out_c)
    assert enum_doc["result"]["count"] == census_doc["result"]["count"] == 2
    assert enum_doc["result"]["polynomials"] == census_doc["result"]["polynomials"]


def test_invariants_enum_small_degree_errors(capsys):
    code, out, err = run(
        capsys,
        "invariants", "--p", "2", "--n", "2",
        "--matrix", "0;1;1;0", "--degree", "2", "--method", "enum",
    )
    assert code == 3
    assert "error:" in err


def test_scrim_count(capsys):
    code, out, _ = run(
        capsys, "scrim", "--p", "2", "--degree", "3", "--output", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["result"] == {"agree": True, "count": 2, "count_by_divisor_sum": 2}


def test_scrim_list_and_first(capsys):
    _, out_list, _ = run(
        capsys, "scrim", "--p", "2", "--degree", "3", "--mode", "list",
        "--output", "json",
    )
    doc = json.loads(out_list)
    assert doc["result"]["count"] == 2
    _, out_first, _ = run(
        capsys, "scrim", "--p", "2", "--degree", "3", "--mode", "first"
    )
    lines = out_first.strip().splitlines()
    # at degree 3 over GF(4) the whole family is one conjugate pair
    assert lines[0] == doc["result"]["polynomials"][0]
    assert sorted(lines) == sorted(doc["result"]["polynomials"])


def test_srim_modes(capsys):
    code, out, _ = run(
        capsys, "scrim", "--p", "2", "--degree", "6", "--kind", "srim",
        "--mode", "list", "--output", "json",
    )
    doc = json.loads(out)
    assert doc["result"]["count"] == 1
    assert doc["result"]["polynomials"] == ["1,0,0,1,0,0,1"]
    code, _, err = run(
        capsys, "scrim", "--p", "2", "--degree", "5", "--kind", "srim",
        "--mode", "count",
    )
    assert code == 3


@pytest.mark.parametrize("p, degree", [(2, 10), (3, 6)])
def test_srim_count_and_first_agree_with_the_list(capsys, p, degree):
    argv = ("scrim", "--p", str(p), "--degree", str(degree), "--kind", "srim", "--output", "json")
    listed = json.loads(run(capsys, *argv, "--mode", "list")[1])["result"]
    code, out, _ = run(capsys, *argv, "--mode", "count")
    assert code == 0
    assert json.loads(out)["result"] == {"count": listed["count"]}
    code, out, _ = run(capsys, *argv, "--mode", "first")
    assert code == 0
    assert json.loads(out)["result"] == {"poly": listed["polynomials"][0]}


# SHA-256 of the text listings' stdout, recorded before SRIM listings
# switched from a Ben-Or test per candidate to Meyn's criterion and before
# format_poly read a token table
LISTING_SHA256 = {
    ("5", "1", "10", "srim"): "3b5b63abfcacb3b688739cf2b903304613b650c1bda3c1cffb1611c40bcf1f46",
    ("2", "2", "10", "srim"): "965a33c238c3e94862951a94114edded86490472008f8e303d91b14e4fea4622",
    ("2", "1", "18", "srim"): "77f56a85bd69478f10a81ec1d5a07f609b98072875b9166ade3eb2ec212c9bb6",
    ("2", "2", "7", "scrim"): "3463885f3f78308633f9e37a784b518e99340a2cf5eaa42f7ff7333642b6c27a",
}


@pytest.mark.parametrize("p, e, degree, kind", sorted(LISTING_SHA256))
def test_family_listing_bytes_are_pinned(capsys, p, e, degree, kind):
    kind_args = ("--kind", "srim") if kind == "srim" else ()
    code, out, _ = run(capsys, "scrim", "--p", p, "--e", e, "--degree", degree, *kind_args, "--mode", "list")
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == LISTING_SHA256[p, e, degree, kind]


def test_parse_error_exit_code(capsys):
    code, _, err = run(
        capsys,
        "act", "--p", "2", "--n", "2", "--matrix", "1;1;0", "--poly", "1,1",
    )
    assert code == 2
    assert "error:" in err


def test_capacity_error_exit_code(capsys):
    code, _, err = run(
        capsys,
        "invariants", "--p", "2", "--n", "2", "--matrix", "1;0;0;1",
        "--frob", "2", "--degree", "15", "--method", "enum",
        "--cap-enum", "1000",
    )
    assert code == 4


def test_domain_error_exit_code(capsys):
    code, _, err = run(
        capsys,
        "act", "--p", "4", "--n", "2", "--matrix", "1;0;0;1", "--poly", "1,1",
    )
    assert code == 3


def test_missing_subcommand(capsys):
    code = main([])
    capsys.readouterr()
    assert code == 2


def test_verify_single_suite(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "formulas", "--output", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["failed"] == 0
    assert all(c["ok"] for c in doc["result"]["checks"])


def test_verify_failure_exits_5_with_report(capsys, monkeypatch):
    from galois_moebius import cli
    from galois_moebius.verify import CheckResult

    def failing_suite(suite, seed=0):
        return [CheckResult(suite, "forced", False, "made to fail")]

    monkeypatch.setattr(cli, "run_suite", failing_suite)
    code, out, err = run(capsys, "verify", "--suite", "formulas", "--output", "json")
    assert code == 5
    doc = json.loads(out)
    assert doc["command"] == "verify"
    assert doc["result"]["failed"] == 1
    assert doc["result"]["passed"] == 0
    assert doc["result"]["checks"][0]["name"] == "forced"
    assert "error: 1 consistency checks failed" in err
