"""The three workloads: inputs made from a seed, one timed round of fixed
work, and checks of the round's outputs against bench/reference.py.

Every call into digraphwalk goes through a module attribute
(``tables.classify``, not a name imported early), so the wrappers that
bench/tracing.py installs in traced runs see it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations
from time import perf_counter

import numpy as np

from digraphwalk import cyclotomic, digraph, enumeration, operators, spectra, supports, tables
from digraphwalk.cyclotomic import Angle

import reference as ref


@dataclass
class Round:
    """One round of a workload's fixed work: per operation, its output, its
    time, whether it computes supports of transfer-matrix powers, and whether
    it counts toward the reported rate of operations."""

    outputs: list = field(default_factory=list)
    times: list = field(default_factory=list)
    support: list = field(default_factory=list)
    rated: list = field(default_factory=list)

    def add(self, output, seconds: float, support: bool, rated: bool = True):
        self.outputs.append(output)
        self.times.append(seconds)
        self.support.append(support)
        self.rated.append(rated)


@dataclass
class Verdict:
    failed: int = 0        # operations that failed: expected failures included
    problems: list = field(default_factory=list)   # unexpected failures

    def bad(self, text: str):
        self.failed += 1
        self.problems.append(text)


def _call(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # reported by the checks as a failed operation
        return exc


# -- paper_tables ----------------------------------------------------------------------------

# (table, functor, angle p/q of pi); the paper's six columns
PAPER_TABLES = (("A", "A", None), ("H_pi3", "Heta", (1, 3)), ("H", "H", (1, 2)),
                ("H_2pi3", "Heta", (2, 3)), ("U2_pi2", "U2plus", (1, 2)),
                ("U2_gt_pi2", "U2plus", (2, 3)))
TABLE_ORDERS = (2, 3, 4, 5)


class PaperTables:
    """`tables --order 2-5 --table all`: 24 classify calls, one process, jobs=1.
    The job is the paper's; the seed does not change it."""

    def __init__(self, seed: int):
        self.calls = [(tid, functor, Angle(*eta) if eta else None, n)
                      for tid, functor, eta in PAPER_TABLES for n in TABLE_ORDERS]

    def warm_up(self):
        for _, functor, eta, _ in self.calls[::len(TABLE_ORDERS)]:
            tables.classify(2, functor, eta, jobs=1)

    def run(self, tracer) -> Round:
        rnd = Round()
        for _, functor, eta, n in self.calls:
            with tracer.op("classify"):
                t = perf_counter()
                out = _call(tables.classify, n, functor, eta, jobs=1)
                rnd.add(out, perf_counter() - t, functor == "U2plus")
        return rnd

    def check(self, rnd: Round) -> Verdict:
        verdict = Verdict()
        counts = {n: ref.digraph_count(n) for n in TABLE_ORDERS}
        for (tid, functor, _, n), t in zip(self.calls, rnd.outputs):
            where = f"{tid} order {n}"
            if isinstance(t, Exception):
                verdict.bad(f"{where}: raised {t!r}")
                continue
            got = tuple(t.row_values())
            excluded = 1 if functor == "U2plus" else 0
            classed = t.n_digraphs - t.n_excluded
            d, c, big = t.n_determined, t.n_distinct, t.max_class
            if c == d:   # every class a singleton
                sizes_ok = big == 1 and c == classed
            else:        # d singletons, one class of size big, the rest between 2 and big
                sizes_ok = d + big + 2 * (c - d - 1) <= classed <= d + big * (c - d)
            if got != ref.PAPER_CELLS[tid][n]:
                verdict.bad(f"{where}: cells {got} != paper {ref.PAPER_CELLS[tid][n]}")
            elif t.n_digraphs != counts[n] or t.n_excluded != excluded:
                verdict.bad(f"{where}: {t.n_digraphs} digraphs, {t.n_excluded} excluded; "
                            f"Burnside gives {counts[n]}, {excluded} to exclude")
            elif not sizes_ok or (t.classes_no_graph + t.classes_only_graphs
                                  + t.classes_mixed) != c:
                verdict.bad(f"{where}: class sizes cannot sum to {classed}")
        return verdict


# -- regular_supports --------------------------------------------------------------------------

REGULAR_CLASSES = ((4, 3), (5, 4), (6, 3), (6, 4), (6, 5))
# Checked classes are whole (n, k) classes, so the checked set does not
# depend on the order in which the enumeration yields digraphs.
CHECKED_CLASSES = ((4, 3), (5, 4), (6, 3))
SQUARE_ANGLES = ((1, 3), (1, 2), (2, 3))


class RegularSupports:
    """Every regular digraph with k >= 3 and n <= 6, then the square-support
    formula and the trace identity on the classes with n <= 5 or k = 3, at three
    angles.  The sweep is fixed; the seed does not change it."""

    def __init__(self, seed: int):
        self.angles = [Angle(p, q) for p, q in SQUARE_ANGLES]
        self.digraphs: dict = {}

    def warm_up(self):
        g = next(enumeration.enumerate_regular_digraphs(4, 3))
        for eta in self.angles:
            supports.verify_square_support_formula(g, eta)
            supports.digon_count_via_trace(g, eta)

    def run(self, tracer) -> Round:
        rnd = Round()
        self.digraphs = {}
        for nk in REGULAR_CLASSES:
            with tracer.op("enumerate"):
                t = perf_counter()
                gs = _call(lambda: list(enumeration.enumerate_regular_digraphs(*nk)))
                rnd.add(None, perf_counter() - t, False, rated=False)
            self.digraphs[nk] = gs
        for nk in CHECKED_CLASSES:
            gs = self.digraphs[nk]
            for g in gs if isinstance(gs, list) else ():
                for eta in self.angles:
                    with tracer.op("check"):
                        t = perf_counter()
                        rep = _call(supports.verify_square_support_formula, g, eta)
                        half = _call(supports.digon_count_via_trace, g, eta)
                        rnd.add((nk, g, eta, rep, half), perf_counter() - t, True)
        return rnd

    def check(self, rnd: Round) -> Verdict:
        verdict = Verdict()
        for (n, k), gs in self.digraphs.items():
            want = ref.regular_digraph_count(n, k)
            if isinstance(gs, Exception):
                verdict.bad(f"enumerate ({n}, {k}) raised {gs!r}")
                continue
            if len(gs) != want:
                verdict.bad(f"({n}, {k}): {len(gs)} digraphs, Burnside gives {want}")
            for g in gs:
                deg = [0] * g.n
                for u, v in {(min(a), max(a)) for a in g.arcs}:
                    deg[u] += 1
                    deg[v] += 1
                if g.n != n or any(x != k for x in deg):
                    verdict.bad(f"({n}, {k}): enumerated {sorted(g.arcs)} is not {k}-regular")
                    break
        checks = rnd.outputs[len(REGULAR_CLASSES):]
        expected = sum(len(gs) * len(self.angles) for nk, gs in self.digraphs.items()
                       if nk in CHECKED_CLASSES and isinstance(gs, list))
        if len(checks) != expected:
            verdict.bad(f"{len(checks)} checks made, {expected} expected")
        for i, ((n, k), g, eta, rep, half) in enumerate(checks):
            where = f"({n}, {k}) {sorted(g.arcs)} at {eta.p}/{eta.q}"
            if isinstance(rep, Exception) or isinstance(half, Exception):
                verdict.bad(f"{where}: raised {rep if isinstance(rep, Exception) else half!r}")
                continue
            regime = ref.regime(eta.p, eta.q)
            want_half = (ref.underlying_edge_count(g.arcs) if regime == 1
                         else ref.digon_count(g.arcs))
            if not (rep.holds and rep.precondition_ok and not rep.violations
                    and rep.regime == regime and rep.k == k):
                verdict.bad(f"{where}: report {rep.summary()} (k={rep.k})")
            elif half != want_half:
                verdict.bad(f"{where}: half-trace {half}, expected {want_half}")
            elif i // len(self.angles) % len(self.angles) == i % len(self.angles):
                # supports of each digraph at one of the angles, in turn
                for sign, tag in ((1, "+"), (-1, "-")):
                    sup = supports.power_support(g, eta, 2, tag)
                    want = ref.square_support_formula(g.arcs, sup.space.labels, k,
                                                      eta.p, eta.q, sign)
                    if not np.array_equal(np.array(sup.data, dtype=np.int64), want):
                        verdict.bad(f"{where}: {tag} support differs from the formula")
                        break
        return verdict


# -- walk_queries ------------------------------------------------------------------------------

# (degree sequence, digons, digraphs per round): sparse and dense at each
# order 4..8.  The degree sequence is fixed, and regular where the work is
# largest, so that the work of a stream varies little from seed to seed.
QUERY_STRATA = (((3, 2, 2, 1), 1, 3), ((3, 3, 3, 3), 3, 3),
                ((3, 3, 2, 2, 2), 2, 3), ((4, 4, 4, 3, 3), 4, 3),
                ((3, 3, 2, 2, 2, 2), 2, 3), ((4,) * 6, 6, 3),
                ((3, 3, 3, 3, 2, 2, 2), 3, 3), ((4,) * 7, 7, 3),
                ((3, 3, 3, 3, 2, 2, 2, 2), 3, 3), ((4,) * 8, 8, 3))
# Fields of the integer sign path (m = 2q = 2, 4, 6) and generic fields (m = 10, 14).
INTEGER_ANGLES = {1: ((0, 1), (1, 1)), 2: ((1, 2),), 3: ((1, 3), (2, 3))}
GENERIC_ANGLES = {5: ((1, 5), (2, 5), (3, 5), (4, 5)),
                  7: ((1, 7), (2, 7), (3, 7), (4, 7), (5, 7), (6, 7))}
CHEAP_KINDS = ("build", "spectrum", "charpoly")
QUERY_KINDS = CHEAP_KINDS + ("support2", "support3")
SUPPORT_KINDS = ("support2", "support3", "forest")


@dataclass(frozen=True)
class Query:
    kind: str
    n: int
    arcs: frozenset
    text: str        # the request as the CLI receives it (--arcs)
    p: int
    q: int
    sign: str = "+"


def _connected(n: int, edges) -> bool:
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    seen, todo = {0}, [0]
    while todo:
        for w in adj[todo.pop()] - seen:
            seen.add(w)
            todo.append(w)
    return len(seen) == n


def _havel_hakimi(degrees) -> list[tuple[int, int]]:
    left = list(degrees)
    edges = []
    while any(left):
        order = sorted(range(len(left)), key=lambda v: -left[v])
        v = order[0]
        for w in order[1:1 + left[v]]:
            edges.append((min(v, w), max(v, w)))
            left[w] -= 1
        left[v] = 0
    return edges


def random_digraph(rng: random.Random, degrees, n_digons: int) -> frozenset:
    """Arcs of a weakly connected digraph whose underlying graph has the given
    degree sequence (random double-edge swaps from a fixed realization, then a
    random relabeling) and n_digons digons; the other edges are one-way arcs
    of random direction."""
    n = len(degrees)
    while True:
        edges = set(_havel_hakimi(degrees))
        for _ in range(10 * len(edges)):
            (a, b), (c, d) = rng.sample(sorted(edges), 2)
            if rng.random() < 0.5:
                c, d = d, c
            new = {(min(a, d), max(a, d)), (min(c, b), max(c, b))}
            if a != d and c != b and len(new) == 2 and not new & edges:
                edges -= {(min(a, b), max(a, b)), (min(c, d), max(c, d))}
                edges |= new
        if _connected(n, edges):
            break
    perm = list(range(n))
    rng.shuffle(perm)
    edges = sorted(edges)
    digon_idx = set(rng.sample(range(len(edges)), n_digons))
    arcs = set()
    for i, (u, v) in enumerate(edges):
        u, v = perm[u], perm[v]
        if i in digon_idx:
            arcs |= {(u, v), (v, u)}
        else:
            arcs.add((u, v) if rng.random() < 0.5 else (v, u))
    return frozenset(arcs)


def arc_text(n: int, arcs: frozenset) -> str:
    parts = [f"n={n}"]
    for u, v in sorted(arcs):
        if (v, u) in arcs:
            if u < v:
                parts.append(f"{u}<->{v}")
        else:
            parts.append(f"{u}->{v}")
    return "; ".join(parts)


def make_queries(seed: int) -> list[Query]:
    """A fixed make-up of queries, with the digraphs, angles and signs drawn
    from the seed.  Each digraph is queried at four angles, two from
    integer-path fields and one from each generic field: build, spectrum and
    charpoly at all four, the supports at one of each kind of field."""
    rng = random.Random(seed)
    queries = []
    j = 0
    for degrees, n_digons, copies in QUERY_STRATA:
        n = len(degrees)
        for _ in range(copies):
            arcs = random_digraph(rng, degrees, n_digons)
            text = arc_text(n, arcs)
            int_qs = ((1, 2, 3)[j % 3], (1, 2, 3)[(j + 1) % 3])
            angles = [rng.choice(INTEGER_ANGLES[q]) for q in int_qs]
            angles += [rng.choice(GENERIC_ANGLES[q]) for q in ((5, 7)[j % 2], (7, 5)[j % 2])]
            for i, (p, q) in enumerate(angles):
                kinds = QUERY_KINDS if i in (0, 2) else CHEAP_KINDS
                for kind in kinds:
                    queries.append(Query(kind, n, arcs, text, p, q, rng.choice("+-")))
            j += 1
    rng.shuffle(queries)
    return queries


class WalkQueries:
    """Single-digraph requests as `build`, `spectrum` and `supports` serve them,
    plus one request that fails: the + support of the square at pi/2 on the
    star forest, where int64 overflows."""

    def __init__(self, seed: int):
        self.queries = make_queries(seed)
        n, arcs = ref.star_forest_arcs()
        self.queries.append(Query("forest", n, arcs, arc_text(n, arcs), 1, 2, "+"))

    def warm_up(self):
        text = "n=3; 0<->1; 1->2"
        g = digraph.parse_arc_list(text)
        for qs in (INTEGER_ANGLES, GENERIC_ANGLES):
            for angles in qs.values():
                for p, q in angles:
                    cyclotomic.make_root(Angle(p, q))
        for p, q in ((1, 2), (1, 5)):
            for kind in QUERY_KINDS:
                self._answer(Query(kind, 3, g.arcs, text, p, q))

    @staticmethod
    def _answer(query: Query):
        g = digraph.parse_arc_list(query.text)
        eta = Angle(query.p, query.q)
        if query.kind == "build":
            u = operators.build_U_theta(g, eta)
            return u, (u @ u.adjoint()).is_identity()
        if query.kind == "spectrum":
            return spectra.spectrum_U_via_mapping(g, eta), spectra.spectrum_U_oracle(g, eta)
        if query.kind == "charpoly":
            return spectra.charpoly_exact(operators.build_H_eta(g, eta))
        power = 3 if query.kind == "support3" else 2
        return supports.power_support(g, eta, power, query.sign)

    def run(self, tracer) -> Round:
        rnd = Round()
        for query in self.queries:
            with tracer.op(query.kind):
                t = perf_counter()
                out = _call(self._answer, query)
                rnd.add(out, perf_counter() - t, query.kind in SUPPORT_KINDS)
        return rnd

    def check(self, rnd: Round) -> Verdict:
        verdict = Verdict()
        for query, out in zip(self.queries, rnd.outputs):
            problem = self._problem(query, out)
            if problem is None:
                continue
            if query.kind == "forest":
                verdict.failed += 1   # the known int64 overflow; expected
            else:
                verdict.bad(f"{query.kind} {query.text} at {query.p}/{query.q}: {problem}")
        return verdict

    @staticmethod
    def _problem(query: Query, out) -> str | None:
        if isinstance(out, Exception):
            return f"raised {out!r}"
        eta = np.pi * query.p / query.q
        labels = sorted({a for u, v in query.arcs for a in ((u, v), (v, u))})
        if query.kind == "build":
            u, unitary = out
            got_labels = list(u.row_space.labels)
            if sorted(got_labels) != labels or u.row_sqrt is not None or u.col_sqrt is not None:
                return "arc space differs"
            exact = np.array([[ref.field_value(x.m, x.num, x.den) for x in row] for row in u.data])
            if np.abs(exact - ref.float_U(query.arcs, got_labels, eta)).max() > 1e-12:
                return "U_theta differs from its definition"
            return None if unitary is True else "unitarity test failed"
        if query.kind == "spectrum":
            want = np.linalg.eigvals(ref.float_U(query.arcs, labels, eta))
            for name, spec in zip(("mapping", "oracle"), out):
                if not ref.multiset_match(spec.as_multiset(), want, 1e-8):
                    return f"{name} spectrum differs from eigvals beyond 1e-8"
            return None
        if query.kind == "charpoly":
            coeffs = [ref.field_value(c.m, c.num, c.den) for c in out.coeffs]
            h = ref.float_H(query.n, query.arcs, eta)
            if not ref.charpoly_matches_eigvalsh(coeffs, h):
                return "charpoly differs from the one of eigvalsh"
            return None
        got = np.array(out.data, dtype=np.int64)
        got_labels = list(out.space.labels)
        if sorted(got_labels) != labels:
            return "arc space differs"
        want_sign = 1 if query.sign == "+" else -1
        if query.kind == "forest":
            rows = ref.exact_square_positive_support(query.arcs, got_labels)
            wrong = sum(len(set(np.flatnonzero(r)) ^ w) for r, w in zip(got, rows))
            return f"{wrong} entries differ from exact integers" if wrong else None
        power = 3 if query.kind == "support3" else 2
        u = ref.float_U(query.arcs, got_labels, eta)
        re = (ref.float_D(query.arcs, got_labels, eta) @ np.linalg.matrix_power(u, power)).real
        decided = np.abs(re) > 1e-9
        if np.any(got[decided] != (np.sign(re[decided]) == want_sign)):
            return "support differs from the float sign"
        return None


WORKLOADS = {"paper_tables": PaperTables, "regular_supports": RegularSupports,
             "walk_queries": WalkQueries}
