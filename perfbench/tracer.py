"""Layer spans and work counters for the traced run, installed from outside.

The package is not edited.  ``Tracer.install`` replaces each entry point
below with a timing wrapper in every ``galois_moebius`` module that binds
it (a name bound by ``from ... import`` is a separate binding), and wraps
the per-level ``poly_mul`` / ``poly_rem_monic`` instance attributes of every
level the factories ``prime_level`` / ``ext_level`` hand out.  A target a
later refactor removes is listed in ``missing`` instead of failing the run.

Each wrapper keeps one frame on a stack, so a layer's self time is its
duration minus the time its traced children cover.  Coarse layers (SPAN)
also keep one span record each: name, start, end, parent span and op id.
Layers called up to millions of times per op (FRAME and LEAF) are only
aggregated per op and layer: calls, inclusive seconds and self seconds.
"""

from __future__ import annotations

import sys
import time

# (module, function name, kind); kind SPAN keeps a record per call
TARGETS = (
    ("gftower", "build_tower", "span"),
    ("polyring", "monic_irreducibles", "span"),
    ("polyring", "_ddf", "span"),
    ("polyring", "_edf", "span"),
    ("polyring", "_powmod", "frame"),
    ("polyring", "_gcd", "frame"),
    ("polyring", "_irreducible", "frame"),
    ("pgammal", "fixing_polynomial_twisted", "span"),
    ("pgammal", "moebius_act", "frame"),
    ("invariants", "enumerate_invariants", "span"),
    ("invariants", "plan_enumeration", "span"),
    ("invariants", "census", "span"),
    ("invariants", "scrim_polynomials", "span"),
    ("invariants", "srim_polynomials", "span"),
    ("invariants", "is_invariant", "frame"),
    ("verify", "run_suite", "span"),
    ("cli", "main", "span"),
    ("textio", "format_poly", "leaf"),
    ("textio", "parse_poly", "leaf"),
)
LEVEL_FACTORIES = (("gftower", "prime_level"), ("gftower", "ext_level"))
LEVEL_OPS = ("poly_mul", "poly_rem_monic")
BUCKETS = ("calls_deg_lt64", "calls_deg_64_511", "calls_deg_512_2047", "calls_deg_ge2048")

# counters a call adds to when its direct traced parent is the given layer
PARENT_COUNTS = {
    "polyring._powmod": ("polyring._ddf", "polyring._ddf.rounds"),
    "polyring._gcd": ("polyring._edf", "polyring._edf.gcd_calls"),
    "polyring._irreducible": ("polyring.monic_irreducibles", "polyring.monic_irreducibles.candidates"),
    "invariants.is_invariant": ("invariants.census", "invariants.census.candidates"),
}


def suites() -> tuple:
    """The suite names of ``verify``, each traced as a layer of its own."""
    import importlib

    return getattr(importlib.import_module("galois_moebius.verify"), "SUITES", ())


class Tracer:
    def __init__(self):
        self.stack = [[0.0, "", 0]]  # frames: [covered seconds, layer, span id]
        self.layers: dict[str, list] = {}  # layer -> [calls, inclusive s, self s]
        self.counters: dict[str, list] = {}  # counter -> [value]
        self.spans: list[tuple] = []  # (span id, layer, start, end, parent span id, op)
        self.missing: list[str] = []
        self.op = "setup"
        self._next_span = 1
        self._wrapped_levels: set[int] = set()

    # --- bookkeeping ------------------------------------------------

    def _layer(self, name):
        return self.layers.setdefault(name, [0, 0.0, 0.0])

    def _counter(self, name):
        return self.counters.setdefault(name, [0])

    def snapshot(self) -> dict:
        """Per-layer totals so far, then zeroed in place (wrappers keep
        references to the same lists)."""
        out = {
            "layers": {k: list(v) for k, v in self.layers.items() if v[0]},
            "counters": {k: v[0] for k, v in self.counters.items() if v[0]},
        }
        for v in self.layers.values():
            v[0], v[1], v[2] = 0, 0.0, 0.0
        for v in self.counters.values():
            v[0] = 0
        return out

    # --- wrappers ---------------------------------------------------

    def _frame_wrapper(self, name, fn, record, before=None, after=None):
        stack, spans, ent = self.stack, self.spans, self._layer(name)
        parent_count = PARENT_COUNTS.get(name)
        pname, pcount = (parent_count[0], self._counter(parent_count[1])) if parent_count else (None, None)
        pc = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if parent[1] == pname:
                pcount[0] += 1
            if record:
                sid = tracer._next_span
                tracer._next_span = sid + 1
            else:
                sid = parent[2]
            if before is not None:
                before(args)
            frame = [0.0, name, sid]
            stack.append(frame)
            t0 = pc()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = pc()
                stack.pop()
                dur = t1 - t0
                parent[0] += dur
                ent[0] += 1
                ent[1] += dur
                ent[2] += dur - frame[0]
                if record:
                    spans.append((sid, name, t0, t1, parent[2], tracer.op))
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _leaf_wrapper(self, name, fn, buckets=None):
        stack, ent = self.stack, self._layer(name)
        pc = time.perf_counter
        if buckets is None:

            def leaf(*args, **kwargs):
                t0 = pc()
                result = fn(*args, **kwargs)
                dt = pc() - t0
                stack[-1][0] += dt
                ent[0] += 1
                ent[1] += dt
                ent[2] += dt
                return result

        else:
            b0, b1, b2, b3 = buckets

            def leaf(f, g):
                t0 = pc()
                result = fn(f, g)
                dt = pc() - t0
                stack[-1][0] += dt
                ent[0] += 1
                ent[1] += dt
                ent[2] += dt
                d = (len(f) if len(f) > len(g) else len(g)) - 1
                if d < 64:
                    b0[0] += 1
                elif d < 512:
                    b1[0] += 1
                elif d < 2048:
                    b2[0] += 1
                else:
                    b3[0] += 1
                return result

        leaf.__wrapped__ = fn
        return leaf

    def _hooks(self, name):
        """Counters that need a call's arguments or result, as (before,
        after) callbacks."""

        def adder(counter, amount):
            entry = self._counter(counter)

            def after(args, result):
                entry[0] += amount(result)

            return after

        if name == "polyring._irreducible":
            return None, adder("polyring._irreducible.accepted", bool)
        if name == "polyring._edf":
            return None, adder("polyring._edf.factors", len)
        if name == "pgammal.fixing_polynomial_twisted":
            return None, adder("pgammal.fixing_polynomial_twisted.degree_sum", lambda r: r.degree)
        if name == "invariants.census":
            return None, adder("invariants.census.fixed", lambda r: sum(e.count for e in r.entries))
        if name == "polyring.monic_irreducibles":
            cold = self._counter("polyring.monic_irreducibles.cold_listings")

            def before(args):
                # a listing is cold when the level's cache lacks the degree
                if len(args) >= 2 and args[1] not in getattr(args[0], "_irr_cache", ()):
                    cold[0] += 1

            return before, None
        return None, None

    # --- installation -------------------------------------------------

    def _rebind(self, original, replacement):
        for modname, mod in list(sys.modules.items()):
            if modname == "galois_moebius" or modname.startswith("galois_moebius."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, replacement)

    def wrap_level(self, level):
        if id(level) in self._wrapped_levels:
            return level
        self._wrapped_levels.add(id(level))
        for op in LEVEL_OPS:
            fn = getattr(level, op, None)
            if fn is None:
                self._note_missing(f"Level.{op}")
                continue
            name = f"polyring.{op}"
            buckets = tuple(self._counter(f"{name}.{b}") for b in BUCKETS)
            setattr(level, op, self._leaf_wrapper(name, fn, buckets))
        return level

    def _note_missing(self, name):
        if name not in self.missing:
            self.missing.append(name)

    def install(self):
        import importlib

        for modname, fname, kind in TARGETS:
            mod = importlib.import_module(f"galois_moebius.{modname}")
            fn = getattr(mod, fname, None)
            if fn is None:
                self._note_missing(f"{modname}.{fname}")
                continue
            name = f"{modname}.{fname}"
            if kind == "leaf":
                wrapper = self._leaf_wrapper(name, fn)
            elif name == "verify.run_suite":
                per_suite = {s: self._frame_wrapper(f"verify.run_suite.{s}", fn, True) for s in suites()}
                plain = self._frame_wrapper(name, fn, True)

                def wrapper(suite, *args, _per=per_suite, _plain=plain, **kwargs):
                    return _per.get(suite, _plain)(suite, *args, **kwargs)

            else:
                before, after = self._hooks(name)
                wrapper = self._frame_wrapper(name, fn, kind == "span", before, after)
            self._rebind(fn, wrapper)
        gftower = importlib.import_module("galois_moebius.gftower")
        for modname, fname in LEVEL_FACTORIES:
            factory = getattr(gftower, fname, None)
            if factory is None:
                self._note_missing(f"{modname}.{fname}")
                continue

            def wrapped_factory(*args, _factory=factory, **kwargs):
                return self.wrap_level(_factory(*args, **kwargs))

            self._rebind(factory, wrapped_factory)
        for registry in ("_PRIME_LEVELS", "_EXT_LEVELS"):
            for level in getattr(gftower, registry, {}).values():
                self.wrap_level(level)
        return self

    # --- ops ----------------------------------------------------------

    def begin_op(self, op_id: str):
        """Called with the stack at its root frame; set-up work done so far
        stays in the totals."""
        self.op = op_id
        self.stack[0][0] = 0.0

    def end_op(self) -> dict:
        """The op's layer totals; calls after it (the checks) are labelled
        "between" and never snapshotted."""
        snap = self.snapshot()
        self.op = "between"
        return snap


def layer_metrics(per_op: list[dict], setup: dict) -> dict:
    """Per-layer metric values of one round from the op snapshots and the
    set-up snapshot."""
    layers: dict[str, list] = {}
    counters: dict[str, float] = {}
    for snap in [setup, *per_op]:
        for k, v in snap["layers"].items():
            acc = layers.setdefault(k, [0, 0.0, 0.0])
            acc[0] += v[0]
            acc[1] += v[1]
            acc[2] += v[2]
        for k, v in snap["counters"].items():
            counters[k] = counters.get(k, 0) + v

    def calls(name):
        return layers.get(name, [0, 0.0, 0.0])[0]

    def incl(name):
        return layers.get(name, [0, 0.0, 0.0])[1]

    def self_s(name):
        return layers.get(name, [0, 0.0, 0.0])[2]

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "gftower.build_tower.calls": calls("gftower.build_tower"),
        "gftower.build_tower.s": incl("gftower.build_tower"),
    }
    for op in LEVEL_OPS:
        name = f"polyring.{op}"
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
        for b in BUCKETS:
            m[f"{name}.{b}"] = counters.get(f"{name}.{b}", 0)
    for name in ("polyring._powmod", "polyring._gcd"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
    m["polyring._ddf.self_s"] = self_s("polyring._ddf")
    m["polyring._ddf.rounds"] = counters.get("polyring._ddf.rounds", 0)
    m["polyring._edf.self_s"] = self_s("polyring._edf")
    gcd_calls = counters.get("polyring._edf.gcd_calls", 0)
    factors = counters.get("polyring._edf.factors", 0)
    m["polyring._edf.gcd_calls"] = gcd_calls
    m["polyring._edf.factors"] = factors
    m["polyring._edf.split_yield"] = ratio(factors, gcd_calls)
    m["polyring._irreducible.calls"] = calls("polyring._irreducible")
    m["polyring._irreducible.self_s"] = self_s("polyring._irreducible")
    m["polyring._irreducible.accept_ratio"] = ratio(
        counters.get("polyring._irreducible.accepted", 0), calls("polyring._irreducible")
    )
    listings = calls("polyring.monic_irreducibles")
    cold = counters.get("polyring.monic_irreducibles.cold_listings", 0)
    m["polyring.monic_irreducibles.calls"] = listings
    m["polyring.monic_irreducibles.s"] = incl("polyring.monic_irreducibles")
    m["polyring.monic_irreducibles.cold_listings"] = cold
    m["polyring.monic_irreducibles.candidates"] = counters.get(
        "polyring.monic_irreducibles.candidates", 0
    )
    m["polyring.monic_irreducibles.hit_ratio"] = ratio(listings - cold, listings)
    name = "pgammal.fixing_polynomial_twisted"
    m[f"{name}.calls"] = calls(name)
    m[f"{name}.s"] = incl(name)
    m[f"{name}.degree_sum"] = counters.get(f"{name}.degree_sum", 0)
    m["pgammal.moebius_act.calls"] = calls("pgammal.moebius_act")
    m["pgammal.moebius_act.self_s"] = self_s("pgammal.moebius_act")
    m["invariants.enumerate_invariants.s"] = incl("invariants.enumerate_invariants")
    m["invariants.enumerate_invariants.self_s"] = self_s("invariants.enumerate_invariants")
    m["invariants.plan_enumeration.s"] = incl("invariants.plan_enumeration")
    m["invariants.is_invariant.calls"] = calls("invariants.is_invariant")
    m["invariants.is_invariant.s"] = incl("invariants.is_invariant")
    m["invariants.census.s"] = incl("invariants.census")
    m["invariants.census.self_s"] = self_s("invariants.census")
    m["invariants.census.candidates"] = counters.get("invariants.census.candidates", 0)
    m["invariants.census.fixed"] = counters.get("invariants.census.fixed", 0)
    m["invariants.scrim_polynomials.s"] = incl("invariants.scrim_polynomials")
    m["invariants.srim_polynomials.s"] = incl("invariants.srim_polynomials")
    for suite in suites():
        m[f"verify.run_suite.{suite}.s"] = incl(f"verify.run_suite.{suite}")
    m["cli.main.calls"] = calls("cli.main")
    m["cli.main.self_s"] = self_s("cli.main")
    for name in ("textio.format_poly", "textio.parse_poly"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
    return m


def metric_unit(name: str) -> str:
    """Unit of a per-layer metric, as BENCHMARK.json and the result give it."""
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_ratio") or name.endswith("_yield"):
        return "ratio"
    return "count"
