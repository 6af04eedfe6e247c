"""`WitnessSpace.fit` against two independent oracles on the kdv, fw, sp
and gas1d witness spaces and on a kdv ansatz with an entry that is not
weighted-homogeneous: `ColumnSpace.member` over the same curl columns gives
the triviality verdict and the witness, and a fresh `IncrementalSystem` fed
the key rows of one law in global priority order gives the coefficients
that stripping uses.  `strip` is checked against the reduced law minus the
curl of the witness expression.  The columns themselves, built from
reduced theta entries, are checked against the curls reduced after
differentiating.  The
scaling weights and sign gradings that split the space into blocks are
checked against a sympy nullspace, against a brute-force enumeration of
sign changes and against the grade of every key, blocks are built only
when a fit reaches them, `complete` solves a gas1d space that is one
block, and concurrent fits on one fresh space match a serial run."""

import itertools
import math
import sys
import threading
import time

import pytest

from clawforge.calculus import total_derivative
from clawforge.corpus import GAS1D_TEXT
from clawforge.expr import IndepVar, _num
from clawforge.lawgen import (WitnessSpace, _law_rhs_map,
                              default_theta_ansatz,
                              density_equivalent_mod_trivial, make_ansatz,
                              mixed_method)
from clawforge.linsolve import (ColumnSpace, IncrementalSystem,
                                RationalMatrix, solve)
from clawforge.modelfile import ansatz_spaces, parse_model_text
from clawforge.parse import parse

from helpers import GRADING_MODELS, jet_polys

hyp = pytest.importorskip("hypothesis")
st = hyp.strategies

SETTINGS = hyp.settings(max_examples=40, deadline=None, derandomize=True)
# a failing strip example is reported as drawn, not shrunk
NO_SHRINK = (hyp.Phase.explicit, hyp.Phase.reuse, hyp.Phase.generate,
             hyp.Phase.target)

FIT_CASES = ["kdv", "fw", "sp", "gas1d", "kdv-inhomogeneous"]


def _theta(entry, name):
    """The model's theta ansatz, as `mixed` uses it."""
    theta = ansatz_spaces(entry)["theta"]
    if name.endswith("-inhomogeneous"):
        # u + u[x] has no single kdv weight, so the space is one block
        extra = parse("u + u[x]", entry.table)
        theta = make_ansatz(theta.basis + (extra,), "th")
    return theta


def _curls(ws):
    """Each theta entry's reduced curl, key -> value: `ws.columns`
    transposed."""
    curls = [{} for _ in range(ws.ncols)]
    for key, col in ws.columns.items():
        for m, x in col.items():
            curls[m][key] = x
    return curls


def _space(entry, name):
    ws = WitnessSpace(entry.system, _theta(entry, name))
    cs = ColumnSpace()
    for col in _curls(ws):
        cs.add_column(col)
    # a key no curl of the ansatz reaches: degree 9 is past its degree 3
    outside, = _law_rhs_map([entry.system.reduce(parse("u^9", entry.table))])
    assert outside not in ws.columns
    return ws, cs, outside


@pytest.fixture(scope="module")
def spaces(models):
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = _space(models[name.split("-")[0]], name)
        return cache[name]
    return get


def _per_law_solution(ws, rhs_map):
    """The strip coefficients as one elimination per law computes them."""
    inc = IncrementalSystem(ws.ncols)
    extra = sorted(set(rhs_map) - set(ws.columns))
    for key in sorted(ws.columns, key=ws.priority) + extra:
        inc.try_add(ws.columns.get(key, {}), rhs_map.get(key, 0))
    return inc.solution()


def _same(x, y):
    return x == y and type(x) is type(y)


@pytest.mark.parametrize("name", FIT_CASES)
def test_fit_matches_member_and_per_law_elimination(spaces, name):
    ws, cs, outside = spaces(name)
    blocks = {"kdv": 20, "fw": 2, "sp": 34, "gas1d": 109,
              "kdv-inhomogeneous": 1}
    assert len(ws._blocks) == blocks[name]
    curls = _curls(ws)
    weight = st.fractions(min_value=-5, max_value=5,
                          max_denominator=4).filter(bool)

    # a random combination of curl columns, plus (for about half the
    # draws) a few single keys that may take it outside their span, and
    # sometimes a key outside every witness column
    @SETTINGS
    @hyp.given(combo=st.lists(st.tuples(st.integers(0, ws.ncols - 1), weight),
                              max_size=4),
               extra=st.lists(st.tuples(st.sampled_from(sorted(ws.columns)),
                                        weight), max_size=3),
               off=st.booleans())
    def check(combo, extra, off):
        rhs = {}
        for m, w in combo:
            for key, x in curls[m].items():
                rhs[key] = rhs.get(key, 0) + w * x
        for key, w in extra + ([(outside, 1)] if off else []):
            rhs[key] = rhs.get(key, 0) + w
        rhs = {k: _num(x) for k, x in rhs.items() if x}
        exact, coeffs = ws.fit(rhs)
        verdicts.add(exact)
        member = cs.member(rhs)
        assert exact == (member is not None)
        if exact:
            assert all(_same(coeffs[i], member.get(i, 0))
                       for i in range(ws.ncols))
        assert all(_same(a, b)
                   for a, b in zip(coeffs, _per_law_solution(ws, rhs)))
        if not extra and not off:
            assert exact

    verdicts = set()
    check()
    assert verdicts == {True, False}


@pytest.mark.parametrize("name", ["kdv", "sp", "gas1d"])
def test_strip_subtracts_the_curl_of_the_witness(models, spaces, name):
    """`strip` against its definition, with no stored curl column: for
    random witness coordinates and random law components T, it gives
    reduce(T^0 - D_x theta) and reduce(T^1 + D_t theta) for theta =
    `witness_expr(coeffs)`, coefficient types included."""
    entry = models[name]
    ws = spaces(name)[0]
    system, (t, x) = entry.system, entry.table.indep
    weight = st.fractions(min_value=-5, max_value=5,
                          max_denominator=4).filter(bool)
    component = jet_polys(st, entry.table, max_order=2)

    @hyp.settings(max_examples=25, deadline=None, derandomize=True,
                  phases=NO_SHRINK)
    @hyp.given(combo=st.lists(st.tuples(st.integers(0, ws.ncols - 1), weight),
                              min_size=1, max_size=4),
               law=st.tuples(component, component))
    def check(combo, law):
        coeffs = [0] * ws.ncols
        for m, w in combo:
            coeffs[m] = _num(coeffs[m] + w)
        theta = ws.witness_expr(coeffs)
        want = (system.reduce(law[0] - total_derivative(theta, x)),
                system.reduce(law[1] + total_derivative(theta, t)))
        got = ws.strip(tuple(system.reduce(c) for c in law), coeffs)
        assert got == want
        assert all(_same(a, b) for g, w in zip(got, want)
                   for (a, _), (b, _) in zip(g.terms, w.terms))

    check()


@pytest.mark.parametrize("name", ["kdv", "fw", "sp", "gas1d"])
def test_columns_match_curls_reduced_per_entry(models, name):
    """For each built-in theta ansatz, the columns that the witness space
    reads from `reduced_derivative_terms` of each reduced entry b, keyed
    once, are the columns of reduce(D_x b) and reduce(-D_t b), values and
    their types included."""
    entry = models[name]
    theta = ansatz_spaces(entry)["theta"]
    ws = WitnessSpace(entry.system, theta)
    t, x = entry.table.indep
    columns, curls = {}, []
    for m, b in enumerate(theta.basis):
        col = {}
        for comp, e in enumerate((total_derivative(b, x),
                                  -total_derivative(b, t))):
            for c, f in entry.system.reduce(e).terms:
                key = (comp, f)
                col[key] = columns.setdefault(key, {})[m] = c
        curls.append(col)
    assert ws.columns == columns
    assert all(_same(ws.columns[k][m], c)
               for k, col in columns.items() for m, c in col.items())
    assert _curls(ws) == curls


def _complete_over_every_block(ws, rhs, components, extra):
    """extra*s + curl(theta) = rhs solved over every curl column."""
    keys = {k for k in ws.columns if k[0] in components}
    keys |= set(rhs).union(*extra)
    rows, b = [], []
    for key in sorted(keys):
        row = {i: col[key] for i, col in enumerate(extra) if key in col}
        for m, val in ws.columns.get(key, {}).items():
            row[len(extra) + m] = val
        rows.append(row)
        b.append(rhs.get(key, 0))
    return solve(RationalMatrix(rows, ncols=len(extra) + ws.ncols), b)


@pytest.mark.parametrize("name,degree", [("kdv", 3), ("gas1d", 1)])
def test_complete_and_strip_on_unbuilt_blocks(models, name, degree):
    """On a fresh space, `complete` builds the blocks that the right-hand
    side and the extra column reach, and gives the feasibility, the
    particular solution and the possible extra coordinates of a solve over
    every block; `strip` builds the blocks of the coefficients it is
    given and subtracts the same curls as a fully built space.  (Few
    examples and a gas1d ansatz of degree 1: the dense solve is slow.)"""
    entry = models[name]
    theta = default_theta_ansatz(entry.table, degree=degree)
    ws = WitnessSpace(entry.system, theta)
    curls = _curls(ws)
    weight = st.fractions(min_value=-3, max_value=3,
                          max_denominator=2).filter(bool)
    combos = st.lists(st.tuples(st.integers(0, ws.ncols - 1), weight),
                      min_size=1, max_size=3)

    def law(combo, extra):
        rhs = {}
        for m, w in combo:
            for key, x in curls[m].items():
                rhs[key] = rhs.get(key, 0) + w * x
        for key, w in extra:
            rhs[key] = rhs.get(key, 0) + w
        return {k: _num(x) for k, x in rhs.items() if x}

    extras = st.lists(st.tuples(st.sampled_from(sorted(ws.columns)), weight),
                      max_size=2)

    @hyp.settings(max_examples=12, deadline=None, derandomize=True)
    @hyp.given(a=combos, b=combos, extra_a=extras, extra_b=extras,
               components=st.sampled_from([(0, 1), (0,)]))
    def check(a, b, extra_a, extra_b, components):
        rhs, col = law(a, extra_a), law(b, extra_b)
        fresh = WitnessSpace(entry.system, theta)
        for cols in ((), (col,)):
            got = fresh.complete(rhs, components, cols)
            want = _complete_over_every_block(ws, rhs, components, cols)
            assert (got is None) == (want is None)
            if got is not None:
                assert got.particular == want.particular
                assert ({v[0] != 0 for v in got.basis if cols}
                        == {v[0] != 0 for v in want.basis if cols})
        coeffs = [0] * ws.ncols
        for m, w in a:
            coeffs[m] += w
        reds = tuple(entry.system.reduce(e) for e in
                     (parse("u^2*x", entry.table), parse("t*u", entry.table)))
        assert fresh.strip(reds, coeffs) == ws.strip(reds, coeffs)

    check()


def test_complete_on_one_gas1d_block(gas1d):
    """`rho + u` has no single gas1d weight, so the default ansatz with it
    is one block of 498 columns, and `complete` eliminates all of them at
    once: the energy density is equivalent to itself."""
    theta = default_theta_ansatz(gas1d.table)
    theta = make_ansatz(theta.basis + (parse("rho + u", gas1d.table),), "th")
    ws = WitnessSpace(gas1d.system, theta)
    assert len(ws._blocks) == 1 and ws.ncols == 498
    energy = gas1d.laws["energy"].components[0]
    assert density_equivalent_mod_trivial(gas1d.system, energy, energy,
                                          witness_space=ws)


def _weight(factors, n, w):
    """The weight of a monomial under the scaling w (one weight per
    independent, then per dependent variable), read from its atoms."""
    total = 0
    for b, e in factors:
        if isinstance(b, IndepVar):
            total += e * w[b.index]
        else:
            total += e * (w[n + b.alpha] - sum(w[v.index] for v in b.mi))
    return total


def _sympy_scalings(system):
    """A sympy nullspace of the weight differences of each equation's
    terms: the scalings that leave every equation weighted-homogeneous."""
    sympy = pytest.importorskip("sympy")
    n, dim = system.table.n, system.table.n + system.table.m
    w = sympy.symbols(f"w0:{dim}")
    rows = []
    for eq in system.equations:
        lead = _weight(((eq.lead, 1),), n, w)
        for _, f in eq.expr.terms:
            diff = sympy.expand(_weight(f, n, w) - lead)
            rows.append([diff.coeff(s) for s in w])
    return sympy.Matrix(rows).nullspace()


@pytest.mark.parametrize("name,expected", [
    ("kdv", [(-3, -1, 2)]), ("sp", [(-1, 1, 1)]), ("gas1d", 3), ("fw", 0)])
def test_scaling_weights(models, name, expected):
    """The scalings the space splits by are primitive integer vectors and
    span the sympy nullspace: kdv and sp have one each (t, x, u), gas1d
    three, and fw none, so fw splits by its sign grading alone."""
    sympy = pytest.importorskip("sympy")
    entry = models[name]
    ws = WitnessSpace(entry.system, default_theta_ansatz(entry.table))
    oracle = _sympy_scalings(entry.system)
    dim = expected if isinstance(expected, int) else len(expected)
    assert len(oracle) == dim
    assert all(type(x) is int for w in ws._scales for x in w)
    assert all(math.gcd(*w) == 1 for w in ws._scales)
    if not isinstance(expected, int):
        assert ws._scales == expected
    if not dim:
        assert ws._scales == [] and sorted(ws._blocks) == [(0,), (1,)]
        return
    got = sympy.Matrix([list(v) for v in ws._scales])
    assert got.rank() == dim
    assert got.col_join(sympy.Matrix.hstack(*oracle).T).rank() == dim


def _sign_oracle(system):
    """Every s in GF(2)^(n+m) under which each equation's terms have one
    parity, by enumeration."""
    n, dim = system.table.n, system.table.n + system.table.m
    out = set()
    for s in itertools.product((0, 1), repeat=dim):
        if all(len({_weight(f, n, s) % 2 for f in
                    [((eq.lead, 1),)] + [f for _, f in eq.expr.terms]}) == 1
               for eq in system.equations):
            out.add(s)
    return out


def _span_gf2(vectors, dim):
    return {tuple(sum(c * v[i] for c, v in zip(cs, vectors)) % 2
                  for i in range(dim))
            for cs in itertools.product((0, 1), repeat=len(vectors))}


SIGN_CASES = ["kdv", "fw", "sp", "gas1d", "heat", "fractional"]


@pytest.mark.parametrize("name", SIGN_CASES)
def test_sign_gradings(models, name):
    """The sign gradings, with the scalings taken mod 2, span the sign
    changes of the variables that leave every equation homogeneous, and
    none of them is in the span of the scalings mod 2 and the others: fw
    has the t+x parity, sp one parity besides its scaling, kdv, gas1d and
    the heat equation nothing beyond their scalings mod 2, and a model
    with u^(1/2) in its equation has no sign grading."""
    entry = (models[name] if name in models
             else parse_model_text(GRADING_MODELS[name]))
    ws = WitnessSpace(entry.system, default_theta_ansatz(entry.table))
    dim = entry.table.n + entry.table.m
    if name == "fractional":
        assert ws._signs == () and len(ws._scales) == 2
        return
    oracle = _sign_oracle(entry.system)
    scales_mod2 = [[x % 2 for x in w] for w in ws._scales]
    by_scaling = _span_gf2(scales_mod2, dim)
    both = _span_gf2(list(ws._signs) + scales_mod2, dim)
    assert len(both) == 2 ** len(ws._signs) * len(by_scaling)
    assert both == oracle
    assert by_scaling <= oracle
    if name in ("kdv", "gas1d", "heat"):
        assert ws._signs == []
    if name == "sp":
        assert len(ws._signs) == 1
    if name == "kdv":
        assert oracle == by_scaling == {(0, 0, 0), (1, 1, 0)}
    if name == "fw":
        assert oracle == {(0, 0, 0), (1, 1, 0)} and not ws._scales
    if name == "sp":
        assert (0, 0, 1) in oracle - by_scaling


@pytest.mark.parametrize("name", SIGN_CASES + ["kdv-c0"])
def test_redundant_signs_split_no_block(models, name):
    """Grading by every sign change of the sign oracle as well partitions
    the theta entries into the same blocks as the kept signs and the
    scalings do."""
    entry = (models[name] if name in models
             else parse_model_text(GRADING_MODELS[name]))
    ws = WitnessSpace(entry.system, default_theta_ansatz(entry.table))
    n = entry.table.n
    signs = sorted(_sign_oracle(entry.system)) if ws._integral else []
    if not ws._graded:
        assert len(ws._blocks) == 1
        return
    by_grade = {}
    for m, b in enumerate(ws.theta.basis):
        _, f = b.terms[0]
        grade = (tuple(_weight(f, n, w) for w in ws._scales)
                 + tuple(_weight(f, n, s) % 2 for s in signs))
        by_grade.setdefault(grade, []).append(m)
    assert sorted(by_grade.values()) == \
        sorted(blk.members for blk in ws._blocks.values())


@pytest.mark.parametrize("name", ["kdv", "fw", "sp", "gas1d"])
def test_every_key_carries_its_block_weight(models, name):
    """Each theta entry of a block has the block's grade: its weight under
    every scaling and its parity under every sign grading.  Each key of
    its curl has it once the monomial is multiplied by the variable of its
    component (x for D_x, t for D_t)."""
    entry = models[name]
    ws = WitnessSpace(entry.system, _theta(entry, name))
    n = entry.table.n
    t, x = entry.table.indep
    var = {0: ((x, 1),), 1: ((t, 1),)}

    def grade(f):
        return (tuple(_weight(f, n, w) for w in ws._scales)
                + tuple(_weight(f, n, s) % 2 for s in ws._signs))

    curls = _curls(ws)
    for label, blk in ws._blocks.items():
        for m in blk.members:
            for _, f in ws.theta.basis[m].terms:
                assert grade(f) == label
            for comp, f in curls[m]:
                assert grade(f + var[comp]) == label


def test_sp_x3_builds_152_curl_columns(sp, monkeypatch):
    """`mixed sp --generator X3` reaches blocks holding 152 of the 388
    theta entries, where the blocks of the scaling alone held 235: the
    sign grading u -> -u splits them."""
    built = []
    build = WitnessSpace._build

    def counting(self, blk):
        built.extend(blk.members)
        return build(self, blk)

    monkeypatch.setattr(WitnessSpace, "_build", counting)
    spaces = ansatz_spaces(sp)
    mixed_method(sp.system, sp.generators["X3"], spaces["psi"], spaces["h"],
                 theta_ansatz=spaces["theta"])
    assert len(built) == len(set(built)) == 152
    assert len(spaces["theta"].basis) == 388


def _built(ws):
    return {label for label, blk in ws._blocks.items()
            if blk.echelon is not None}


def test_fit_builds_only_the_blocks_a_law_reaches(gas1d):
    ws = WitnessSpace(gas1d.system, default_theta_ansatz(gas1d.table))
    assert _built(ws) == set()
    law = gas1d.laws["energy"]
    rhs = _law_rhs_map([gas1d.system.reduce(c) for c in law.components])
    ws.fit(rhs)
    reached = {ws._label(key) for key in rhs} & set(ws._blocks)
    assert _built(ws) == reached
    assert 0 < len(reached) < len(ws._blocks)
    ws.columns
    assert _built(ws) == set(ws._blocks)


@pytest.fixture(scope="module")
def gas1d_laws(gas1d):
    """Right-hand sides of the gas1d reference laws and of every law (kept
    or trivial) of one mixed run, which reach several blocks each."""
    spaces = ansatz_spaces(gas1d, psi_degree=1)
    result = mixed_method(gas1d.system, gas1d.generators["X0"],
                          spaces["psi"], spaces["h"],
                          theta_ansatz=spaces["theta"])
    laws = [law.components for law in gas1d.laws.values()]
    laws += [law.components for law in result.laws + result.trivial]
    return [_law_rhs_map([gas1d.system.reduce(c) for c in comps])
            for comps in laws]


@pytest.mark.parametrize("round_", range(3))
def test_concurrent_fits_match_serial(gas1d_laws, round_):
    """Four threads share one fresh gas1d witness space, whose blocks start
    unbuilt, and fit the laws each from a different one on; all get what a
    serial run on another fresh space gets.  The thread switches differ
    from run to run, hence several rounds."""

    def fresh():
        system = parse_model_text(GAS1D_TEXT).system
        return WitnessSpace(system, default_theta_ansatz(system.table))

    def work(ws, order):
        return {i: ws.fit(gas1d_laws[i]) for i in order}

    count = len(gas1d_laws)
    serial = work(fresh(), range(count))
    shared = fresh()
    orders = [[(i + k * count // 4) % count for i in range(count)]
              for k in range(4)]
    barrier = threading.Barrier(len(orders))
    results = [None] * len(orders)

    def run(k, order):
        barrier.wait()
        results[k] = work(shared, order)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)     # switch threads as often as possible
    try:
        # daemon threads: one stuck on a corrupted echelon fails the test
        # and does not keep the process alive
        threads = [threading.Thread(target=run, args=(k, order), daemon=True)
                   for k, order in enumerate(orders)]
        for th in threads:
            th.start()
        deadline = time.monotonic() + 60
        for th in threads:
            th.join(timeout=max(0, deadline - time.monotonic()))
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert results == [serial] * len(orders)
