"""`WitnessSpace.fit` against two independent oracles on the kdv, fw, sp
and gas1d witness spaces and on a kdv ansatz with an entry that is not
weighted-homogeneous: `ColumnSpace.member` over the same curl columns gives
the triviality verdict and the witness, and a fresh `IncrementalSystem` fed
the key rows of one law in global priority order gives the coefficients
that stripping uses.  `strip` is checked against the reduced law minus the
curl of the witness expression.  The columns themselves, built from
reduced theta entries, are checked against the curls reduced after
differentiating.  The equivalence tests, which compare the leftovers of
two forward passes, are checked against a dense solve over every block.
The exponent lattice that grades the blocks is checked against the sympy
Hermite normal form, against a sympy nullspace of scalings and a
brute-force enumeration of sign changes, against the grade of every key
and against a recorded partition; blocks are built only when a fit
reaches them, and concurrent fits on one fresh space match a serial
run."""

import hashlib
import itertools
import operator
import sys
import threading
import time
from fractions import Fraction

import pytest

from clawforge.calculus import total_derivative
from clawforge.corpus import GAS1D_TEXT
from clawforge.expr import Expr, IndepVar, _build, _num
from clawforge.lawgen import (WitnessSpace, _coset, _exponents, _lattice,
                              _law_rhs_map, default_theta_ansatz,
                              density_equivalent_mod_trivial, is_trivial,
                              make_ansatz, mixed_method, strip_trivial,
                              vectors_equivalent_mod_trivial)
from clawforge.linsolve import (ColumnSpace, IncrementalSystem,
                                RationalMatrix, solve)
from clawforge.modelfile import ansatz_spaces, parse_model_text
from clawforge.parse import parse

from helpers import GRADING_MODELS, OPAQUE_MODELS, jet_polys

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


def _equivalent_by_solve(ws, a, b, components, allow_scale):
    """Is a - s*b a curl over `components`, for some s != 0 when scaling
    is allowed, else for s = 1, by one dense solve over every block?"""
    if not allow_scale:
        diff = dict(a)
        for key, val in b.items():
            diff[key] = diff.get(key, 0) - val
        return _complete_over_every_block(ws, diff, components, ()) is not None
    sol = _complete_over_every_block(ws, a, components, (b,))
    return sol is not None and (sol.particular[0] != 0
                                or any(v[0] != 0 for v in sol.basis))


@pytest.mark.parametrize("name,degree",
                         [("kdv", 3), ("gas1d", 1), ("fw", 3), ("sp", 3)])
def test_equivalence_and_strip_on_unbuilt_blocks(models, name, degree):
    """On a fresh space, the vector and the density equivalence tests,
    each with and without scaling, give the verdict of a dense solve over
    every curl column of a built space, and both verdicts are drawn; the
    laws are combinations of curl columns plus a few single keys, and
    about half the time one law is a multiple of the other plus a curl.
    `strip` builds the blocks of the coefficients it is given and
    subtracts the same curls as a fully built space.  (Few examples and a
    gas1d ansatz of degree 1: the dense solve is slow.)"""
    entry = models[name]
    system = entry.system
    theta = default_theta_ansatz(entry.table, degree=degree)
    ws = WitnessSpace(system, theta)
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

    def components(rhs):
        return [_build([(x, f) for (c, f), x in rhs.items() if c == comp])
                for comp in (0, 1)]

    extras = st.lists(st.tuples(st.sampled_from(sorted(ws.columns)), weight),
                      max_size=2)

    @hyp.settings(max_examples=30, deadline=None, derandomize=True)
    @hyp.given(a=combos, b=combos, extra_a=extras, extra_b=extras,
               tie=st.sampled_from([None, None, 1, -2, Fraction(1, 2)]))
    def check(a, b, extra_a, extra_b, tie):
        rhs_b = law(b, extra_b)
        if tie is None:
            rhs_a = law(a, extra_a)
        else:   # a is tie*b plus a curl
            rhs_a = law(a + [(m, tie * w) for m, w in b],
                        [(key, tie * w) for key, w in extra_b])
        fresh = WitnessSpace(system, theta)
        A, B = components(rhs_a), components(rhs_b)
        for allow_scale in (False, True):
            got = vectors_equivalent_mod_trivial(
                system, A, B, allow_scale=allow_scale, witness_space=fresh)
            assert got == _equivalent_by_solve(ws, rhs_a, rhs_b, (0, 1),
                                               allow_scale)
            verdicts.add(("vector", allow_scale, got))
            got = density_equivalent_mod_trivial(
                system, A[0], B[0], allow_scale=allow_scale,
                witness_space=fresh)
            density = [{k: x for k, x in rhs.items() if k[0] == 0}
                       for rhs in (rhs_a, rhs_b)]
            assert got == _equivalent_by_solve(ws, *density, (0,),
                                               allow_scale)
            verdicts.add(("density", allow_scale, got))
        coeffs = [0] * ws.ncols
        for m, w in a:
            coeffs[m] += w
        reds = tuple(system.reduce(e) for e in
                     (parse("u^2*x", entry.table), parse("t*u", entry.table)))
        assert fresh.strip(reds, coeffs) == ws.strip(reds, coeffs)

    verdicts = set()
    check()
    assert verdicts == {(kind, scale, v) for kind in ("vector", "density")
                        for scale in (False, True) for v in (False, True)}


def test_density_equivalence_on_one_gas1d_block(gas1d):
    """`rho + u` has no single gas1d grade, so the default ansatz with it
    is one block of 498 columns, and the forward pass runs over all of
    them at once: the energy density is equivalent to itself."""
    theta = default_theta_ansatz(gas1d.table)
    theta = make_ansatz(theta.basis + (parse("rho + u", gas1d.table),), "th")
    ws = WitnessSpace(gas1d.system, theta)
    assert len(ws._blocks) == 1 and ws.ncols == 498
    energy = gas1d.laws["energy"].components[0]
    assert density_equivalent_mod_trivial(gas1d.system, energy, energy,
                                          witness_space=ws)


def test_witness_space_needs_two_independent_variables(gas3d):
    theta = default_theta_ansatz(gas3d.table, degree=1, jet_order=1)
    with pytest.raises(ValueError, match="^a witness space needs two "
                                         "independent variables, not 4$"):
        WitnessSpace(gas3d.system, theta)


def test_gas3d_triviality_builds_no_witness_space(gas3d):
    """With four independent variables each gas3d reference law is
    nontrivial with no witness, with or without a theta ansatz, stripping
    only reduces, a vector vanishing on solutions is still trivial, and
    the equivalence tests refuse."""
    system = gas3d.system
    theta = default_theta_ansatz(gas3d.table, degree=1, jet_order=1)
    for law in gas3d.laws.values():
        reds = tuple(system.reduce(c) for c in law.components)
        for given in (None, theta):
            report = is_trivial(system, law.components, theta_ansatz=given)
            assert (report.trivial, report.kind, report.witness) == \
                (False, None, None)
            assert strip_trivial(system, law.components,
                                 theta_ansatz=given) == reds
    zero = parse("0", gas3d.table)
    report = is_trivial(system, [system.equations[0].expr] + [zero] * 3)
    assert (report.trivial, report.kind) == (True, "vanishing")
    mass = gas3d.laws["mass"].components
    with pytest.raises(ValueError, match="two independent variables"):
        vectors_equivalent_mod_trivial(system, mass, mass)
    with pytest.raises(ValueError, match="two independent variables"):
        density_equivalent_mod_trivial(system, mass[0], mass[0])


def test_lattice_matches_sympy_hermite_normal_form():
    """`_lattice` of random rational rows (integer rows over a common
    denominator d) is in Hermite normal form and spans the lattice of the
    sympy Hermite normal form of the integer rows, scaled by 1/d; `_coset`
    is constant on each coset of it, and two vectors get one coset only
    when their difference is in the sympy lattice."""
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import hermite_normal_form

    @hyp.settings(max_examples=150, deadline=None, derandomize=True)
    @hyp.given(dim=st.integers(1, 5), d=st.sampled_from([1, 2, 3]),
               data=st.data())
    def check(dim, d, data):
        vec = st.lists(st.integers(-4, 4), min_size=dim, max_size=dim)
        ints = data.draw(st.lists(vec, max_size=5))
        rows = [[_num(Fraction(a, d)) for a in r] for r in ints]
        hnf = _lattice(rows, dim)
        for i, (c, row) in enumerate(hnf):
            assert not any(row[:c]) and row[c] > 0
            assert all(0 <= h[c] < row[c] for _, h in hnf[:i])
        assert [c for c, _ in hnf] == sorted({c for c, _ in hnf})
        # the sympy lattice: the columns of the HNF of the integer rows
        span = (hermite_normal_form(sympy.Matrix(ints).T)
                if any(map(any, ints)) else sympy.zeros(dim, 0))

        def member(v):
            if not span.cols:
                return not any(v)
            try:
                sol, _ = span.gauss_jordan_solve(
                    sympy.Matrix([sympy.Rational(x * d) for x in v]))
            except ValueError:
                return False
            return all(x.is_integer for x in sol)

        zero = (0,) * dim
        assert len(hnf) == span.cols
        assert all(member(row) for _, row in hnf)
        assert all(_coset([Fraction(int(x), d) for x in span.col(j)],
                          hnf) == zero for j in range(span.cols))
        v = data.draw(vec)
        coef = data.draw(st.lists(st.integers(-3, 3), min_size=len(ints),
                                  max_size=len(ints)))
        shifted = [_num(a + sum(k * r[i] for k, r in zip(coef, rows)))
                   for i, a in enumerate(v)]
        assert _coset(shifted, hnf) == _coset(v, hnf)
        w = data.draw(st.one_of(st.just(shifted), vec))
        same = _coset(w, hnf) == _coset(v, hnf)
        assert same == member([a - b for a, b in zip(w, v)])
        verdicts.add(same)

    verdicts = set()
    check()
    assert verdicts == {True, False}


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
    """The lattice is orthogonal to every scaling of the sympy nullspace
    and its rank is the number of variables less theirs, so every scaling
    weight is constant on a lattice class: kdv and sp have one scaling
    each (t, x, u), gas1d three, and fw none, so its lattice has full
    rank."""
    sympy = pytest.importorskip("sympy")
    entry = models[name]
    ws = WitnessSpace(entry.system, default_theta_ansatz(entry.table))
    oracle = _sympy_scalings(entry.system)
    count = expected if isinstance(expected, int) else len(expected)
    assert len(oracle) == count
    if not isinstance(expected, int):
        assert sympy.Matrix.hstack(oracle[0],
                                   sympy.Matrix(expected[0])).rank() == 1
    assert len(ws._lattice) == entry.table.n + entry.table.m - count
    assert all(sum(x * w[i] for i, x in enumerate(row)) == 0
               for _, row in ws._lattice for w in oracle)


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


SIGN_CASES = ["kdv", "fw", "sp", "gas1d", "heat", "fractional"]


@pytest.mark.parametrize("name", SIGN_CASES)
def test_sign_gradings(models, name):
    """The sign changes of the variables that leave every equation
    homogeneous (the sign oracle) are exactly those under which every
    lattice vector has even weight: fw has the t+x parity and no scaling,
    sp the sign u -> -u besides its scaling, kdv only its scaling mod 2,
    and the u^(1/2) of the fractional model leaves u no sign."""
    entry = (models[name] if name in models
             else parse_model_text(GRADING_MODELS[name]))
    ws = WitnessSpace(entry.system, default_theta_ansatz(entry.table))
    dim = entry.table.n + entry.table.m
    even = {s for s in itertools.product((0, 1), repeat=dim)
            if all(sum(map(operator.mul, s, row)) % 2 == 0
                   for _, row in ws._lattice)}
    oracle = _sign_oracle(entry.system)
    assert even == oracle
    if name in ("kdv", "fw", "fractional"):
        assert oracle == {(0, 0, 0), (1, 1, 0)}
    if name == "sp":
        assert (0, 0, 1) in oracle


@pytest.mark.parametrize("name", SIGN_CASES + ["kdv-c0"])
def test_redundant_signs_split_no_block(models, name):
    """The blocks partition the theta entries as their weights under
    every scaling of the sympy nullspace and their parities under every
    sign change of the sign oracle do.  kdv-c0 has a parameter in its
    equation, so it has no lattice and one block."""
    entry = (models[name] if name in models
             else parse_model_text(GRADING_MODELS[name]))
    ws = WitnessSpace(entry.system, default_theta_ansatz(entry.table))
    if name == "kdv-c0":
        assert ws._lattice is None and len(ws._blocks) == 1
        return
    n = entry.table.n
    scalings = _sympy_scalings(entry.system)
    signs = sorted(_sign_oracle(entry.system))
    by_grade = {}
    for m, b in enumerate(ws.theta.basis):
        _, f = b.terms[0]
        grade = (tuple(_weight(f, n, w) for w in scalings)
                 + tuple(_weight(f, n, s) % 2 for s in signs))
        by_grade.setdefault(grade, []).append(m)
    assert sorted(by_grade.values()) == \
        sorted(blk.members for blk in ws._blocks.values())


@pytest.mark.parametrize("name", ["kdv", "fw", "sp", "gas1d"])
def test_every_key_carries_its_block_weight(models, name):
    """Each theta entry of a block has the block's lattice class, and so
    has each key of its curl once the monomial is multiplied by the
    variable of its component (x for D_x, t for D_t)."""
    entry = models[name]
    ws = WitnessSpace(entry.system, _theta(entry, name))
    n, dim = entry.table.n, entry.table.n + entry.table.m
    t, x = entry.table.indep
    var = {0: ((x, 1),), 1: ((t, 1),)}

    def grade(f):
        return _coset(_exponents(f, n, dim), ws._lattice)

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


# sha256 of every block's members and of the block (by its first member)
# that `_label` gives each curl key, in priority order, for the four 2-D
# built-ins and the grading and opaque test models at the `[ansatz]`
# theta, the default theta and theta degree 5 with jets of order 3;
# recorded when the blocks were graded by the rational scalings and the
# GF(2) signs of each model, with the block count
PARTITION_PINS = {
    ("kdv", "ansatz"):
        (20, "17a781d4da592622332d19eeb517bf0861fd42f6e6a4a5fac5ec505912ed8f31"),
    ("kdv", "default"):
        (20, "17a781d4da592622332d19eeb517bf0861fd42f6e6a4a5fac5ec505912ed8f31"),
    ("kdv", "d5j3"):
        (33, "2bc8c9457e7e51dd87f4d951ba1a779b0ac6c5708e36b7915fb0da3d2b099d87"),
    ("fw", "ansatz"):
        (2, "8f253589571b77d3715b780fa9bb07574ec56866e6a26158666edc8ec9cd756b"),
    ("fw", "default"):
        (2, "8f253589571b77d3715b780fa9bb07574ec56866e6a26158666edc8ec9cd756b"),
    ("fw", "d5j3"):
        (2, "57dae2eedf7333d3a6e15d667911d2a4c05c9710c6b6faaa371f8d84fdaa7f71"),
    ("sp", "ansatz"):
        (34, "4ae0935d3fb9e65ce0d7cb6a680e2176cccd199ebec24eb929549826e21d64c2"),
    ("sp", "default"):
        (18, "8542d51da888338397b1b129a4e3d352a6dad10fc6cd3b861104160e38deec11"),
    ("sp", "d5j3"):
        (29, "650b007666f7153b2ba4760e6d6c7730d94119563532281da43b540a8e96a464"),
    ("gas1d", "ansatz"):
        (109, "3c1911b1f464e9f6c350aa5a89baa968a5b9810d48a4b37d03e9f415fbe409cf"),
    ("gas1d", "default"):
        (109, "3c1911b1f464e9f6c350aa5a89baa968a5b9810d48a4b37d03e9f415fbe409cf"),
    ("gas1d", "d5j3"):
        (380, "8e09e8057a9d37865ce9fcc7267bf7dc56f122c1fa3106ba3bffc58dabcd91a0"),
    ("kdv-c0", "ansatz"):
        (1, "61de6b37b7c5ea273f18aa52e6cafadc7ab178e7e3dcbf1d7058ec4374b32ae9"),
    ("kdv-c0", "default"):
        (1, "61de6b37b7c5ea273f18aa52e6cafadc7ab178e7e3dcbf1d7058ec4374b32ae9"),
    ("kdv-c0", "d5j3"):
        (1, "983b739e1972333a390f2f4a7442321dc1b6e2ae9292ba61877bababc8ec617e"),
    ("fractional", "ansatz"):
        (36, "4390be6e570c07efd2703a19f5bda0ef31b935d9162126395a229946d85bdb04"),
    ("fractional", "default"):
        (36, "4390be6e570c07efd2703a19f5bda0ef31b935d9162126395a229946d85bdb04"),
    ("fractional", "d5j3"):
        (89, "3d90480e0ed08ee9130437ae165ff7c0f0a4fd37fbd31fa8e0865f1e9aaff7e6"),
    ("heat", "ansatz"):
        (28, "9b0e6184f93f7adb46a9553ec0db251b1ba45b5120300e8cdbad42d3d4674df2"),
    ("heat", "default"):
        (28, "9b0e6184f93f7adb46a9553ec0db251b1ba45b5120300e8cdbad42d3d4674df2"),
    ("heat", "d5j3"):
        (66, "548e4aa243bfc98bda9c3c29711c91e22f279edd02403b869961baa5ae6fa344"),
    ("radical-heat", "ansatz"):
        (1, "cd4593be82dd29dcc8265973b971f95ecc27a83c9171724dbcbe80a722dfe5a4"),
    ("radical-heat", "default"):
        (1, "cd4593be82dd29dcc8265973b971f95ecc27a83c9171724dbcbe80a722dfe5a4"),
    ("radical-heat", "d5j3"):
        (1, "be333e1e1b2790a6fd29ce772d4868f14fb9aff40ea27c24e4f60d90e949e235"),
    ("radical-advection", "ansatz"):
        (1, "0f2168c5f76cda1abef283f2197d8ed7d392757aa77286b989b3e89053de2466"),
    ("radical-advection", "default"):
        (1, "0f2168c5f76cda1abef283f2197d8ed7d392757aa77286b989b3e89053de2466"),
    ("radical-advection", "d5j3"):
        (1, "93f10c206e46b41cf6ea81faf0794bc3f58ecf0706fe62fd716851ebbeca8f41"),
}


def _pin_theta(entry, which):
    if which == "ansatz":
        return ansatz_spaces(entry)["theta"]
    if which == "default":
        return default_theta_ansatz(entry.table)
    return default_theta_ansatz(entry.table, degree=5, jet_order=3)


@pytest.mark.parametrize("name,which", list(PARTITION_PINS),
                         ids=[f"{n}-{w}" for n, w in PARTITION_PINS])
def test_block_partition_unchanged(models, name, which):
    """Every block's members, and the block `_label` places each curl key
    in, which holds that key's column."""
    entry = (models[name] if name in models
             else parse_model_text({**GRADING_MODELS, **OPAQUE_MODELS}[name]))
    ws = WitnessSpace(entry.system, _pin_theta(entry, which))
    first = {label: min(blk.members) for label, blk in ws._blocks.items()}
    lines = ["block " + ",".join(map(str, members)) for members in
             sorted(blk.members for blk in ws._blocks.values())]
    for key in sorted(ws.columns, key=ws.priority):
        label = ws._label(key)
        assert key in ws._blocks[label].columns
        lines.append(f"{key[0]} {Expr(((1, key[1]),))} {first[label]}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (len(ws._blocks), digest) == PARTITION_PINS[name, which]
