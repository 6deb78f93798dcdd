"""Every import in the package source is used somewhere in its module, the
package has one square-and-multiply ladder, one long division per
polynomial kernel kind, one route to a pure Frobenius fixed set, one
multiplicative-generator search, and a census that neither works in base-p
digits nor walks the scalars of its level."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "galois_moebius"

# __init__.py imports are the package's public re-exports, used by definition
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


def _names(expr):
    return {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}


def _used(tree):
    used = _names(tree)
    for node in ast.walk(tree):
        # names listed in __all__ are exported, which counts as a use
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
        # quoted annotations such as -> "Poly"
        for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= _names(ast.parse(ann.value, mode="eval"))
    return used


def test_modules_found():
    assert len(MODULES) >= 5


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = [f"{path.name}:{line}: {name}" for line, name in _imported(tree) if name not in used]
    assert not unused, "unused imports:\n" + "\n".join(unused)


def _is_halving(node):
    return (
        isinstance(node, ast.AugAssign)
        and isinstance(node.op, ast.RShift)
        and isinstance(node.value, ast.Constant)
        and node.value.value == 1
    )


def test_one_square_and_multiply_ladder():
    # every exponent ladder halves its exponent with `>>= 1`; the only one
    # belongs in numtheory.power, which the field levels, polynomials and
    # group elements all call
    found = []
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        owner = {}
        # ast.walk goes outside in, so an inner function overrides its outer one
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((node, fn.name) for node in ast.walk(fn))
        found += [
            f"{path.name}:{node.lineno}: {owner.get(node, '<module>')}"
            for node in ast.walk(tree)
            if _is_halving(node)
        ]
    assert len(found) == 1 and found[0].startswith("numtheory.py:"), found
    assert found[0].endswith(": power"), found


def _function(path, name):
    tree = ast.parse(path.read_text(), filename=str(path))
    return next(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == name)


def _is_descending_loop(node):
    # for i in range(top, stop, -1): the long division's walk down the dividend
    return (
        isinstance(node, ast.For)
        and isinstance(node.iter, ast.Call)
        and isinstance(node.iter.func, ast.Name)
        and node.iter.func.id == "range"
        and len(node.iter.args) == 3
        and isinstance(node.iter.args[2], ast.UnaryOp)
    )


def test_one_long_division_per_kernel_kind():
    # polyring's division only scales the divisor and calls the level's
    # kernel, and each kernel kind (char-2 rows, odd-p rows, generic) has
    # one division loop, under the shared poly_rem_monic and
    # poly_divmod_monic wrappers
    divmod_ = _function(PACKAGE / "polyring.py", "_divmod")
    loops = [n for n in ast.walk(divmod_) if isinstance(n, (ast.For, ast.While, ast.comprehension))]
    assert not loops, "polyring._divmod divides with its own loop"
    install = _function(PACKAGE / "gftower.py", "_install_poly_ops")
    kinds = next(n for n in install.body if isinstance(n, ast.If))
    branches = [kinds.body, kinds.orelse[0].body, kinds.orelse[0].orelse]
    for branch in branches:
        found = [n for stmt in branch for n in ast.walk(stmt) if _is_descending_loop(n)]
        assert len(found) == 1, [n.lineno for n in found]
    assert sum(_is_descending_loop(n) for n in ast.walk(install)) == 3
    defs = [n.name for n in ast.walk(install) if isinstance(n, ast.FunctionDef)]
    assert defs.count("poly_rem_monic") == 1 and defs.count("poly_divmod_monic") == 1, defs


def _called(fn):
    return {
        node.func.attr if isinstance(node.func, ast.Attribute) else node.func.id
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Attribute, ast.Name))
    }


def test_one_route_for_pure_frobenius_fixed_sets():
    # census and enumeration take a scalar matrix's fixed set from
    # _pure_frobenius_fixed, the one of the three that lists irreducibles
    listings = {"_sieve", "monic_irreducibles", "elements_lex"}
    path = PACKAGE / "invariants.py"
    assert _called(_function(path, "_pure_frobenius_fixed")) >= listings
    for name in ("census", "enumerate_invariants"):
        called = _called(_function(path, name))
        assert "_pure_frobenius_fixed" in called, name
        assert not called & listings, (name, called & listings)


def _is_generator_search(node):
    # a loop that tests candidates with a generic power against 1
    return isinstance(node, ast.For) and any(
        isinstance(cmp, ast.Compare)
        and isinstance(cmp.left, ast.Call)
        and isinstance(cmp.left.func, ast.Attribute)
        and cmp.left.func.attr == "_pow_generic"
        and any(isinstance(c, ast.Constant) and c.value == 1 for c in cmp.comparators)
        for cmp in ast.walk(node)
    )


def test_one_generator_search_and_a_census_by_descent():
    # the census solves over the level itself: no base-p digits, no prime
    # field, and no loop over all of its scalars; it shares the level's one
    # generator search with the exp/log set-up
    path = PACKAGE / "invariants.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    names |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
    banned = names & {"flat_deg", "prime_level", "PrimeLevel"}
    assert not banned, banned
    fixed = _function(path, "_fixed_points")
    loops = [n.iter for n in ast.walk(fixed) if isinstance(n, (ast.For, ast.comprehension))]
    walks = [
        loop.lineno
        for loop in loops
        if any(isinstance(a, ast.Attribute) and a.attr == "size" for a in ast.walk(loop))
    ]
    assert not walks, walks
    gftower = ast.parse((PACKAGE / "gftower.py").read_text())
    owners = [
        fn.name
        for fn in ast.walk(gftower)
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if _is_generator_search(node)
    ]
    assert len(owners) == 1, owners
    assert owners[0] != "_build_exp_log", owners
    assert owners[0] in _called(_function(PACKAGE / "gftower.py", "_build_exp_log"))
    assert owners[0] in _called(fixed)
