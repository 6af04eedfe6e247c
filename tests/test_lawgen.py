import random
from fractions import Fraction

import pytest

from clawforge.calculus import (Equation, Generator, PdeSystem,
                                total_derivative)
from clawforge.expr import Expr, Jet, SymbolTable, _build, collect, pdiff
from clawforge.lawgen import (Ansatz, AnsatzError, WitnessSpace,
                              _columns, _packed_rows, characteristic,
                              default_theta_ansatz,
                              density_equivalent_mod_trivial,
                              fluxes_from_multipliers, formal_lagrangian,
                              symmetry_flux, is_trivial, make_ansatz,
                              mixed_method, monomial_basis,
                              multiplier_determining_system,
                              flux_identity_residual,
                              self_adjointness_check, solve_multipliers,
                              strip_trivial, vectors_equivalent_mod_trivial,
                              verify)
from clawforge import lawgen
from clawforge.linsolve import RationalMatrix
from clawforge.modelfile import parse_model_text
from clawforge.parse import parse

from helpers import (GRADING_MODELS, OPAQUE_MODELS, expr_span_equal,
                     jet_polys, total_derivative_mi, two_var_table)


@pytest.fixture()
def tab():
    return SymbolTable(["t", "x"], ["u"])


def P(tab, s):
    return parse(s, tab)


def kdv_system(tab):
    return PdeSystem("kdv", tab,
                     [Equation(tab.jet("u", ["t"]), P(tab, "u[x,x,x]+u*u[x]"))])


def kdv_generators(tab):
    return {
        "X1": Generator((P(tab, "0"), P(tab, "t")), (P(tab, "-1"),), label="X1"),
        "X2": Generator((P(tab, "3*t"), P(tab, "x")), (P(tab, "-2*u"),), label="X2"),
        "X3": Generator((P(tab, "1"), P(tab, "0")), (P(tab, "0"),), label="X3"),
        "X4": Generator((P(tab, "0"), P(tab, "1")), (P(tab, "0"),), label="X4"),
    }


# -- characteristics -----------------------------------------------------------

def test_characteristic_time_translation(tab):
    g = Generator((P(tab, "1"), P(tab, "0")), (P(tab, "0"),), label="dt")
    assert characteristic(g, tab) == [P(tab, "-u[t]")]


def test_characteristic_fw_galilei(tab):
    g = Generator((P(tab, "0"), P(tab, "t")), (P(tab, "1"),), label="X3")
    assert characteristic(g, tab) == [P(tab, "1 - t*u[x]")]


def test_characteristic_accepts_generalized_generators(tab):
    # jet-dependent coefficients are fine for characteristic/flux routes
    g = Generator((P(tab, "0"), P(tab, "0")), (P(tab, "u[x]"),), label="evol")
    assert characteristic(g, tab) == [P(tab, "u[x]")]
    kdv = kdv_system(tab)
    C = symmetry_flux(formal_lagrangian(kdv, [P(tab, "u")]), g, kdv)
    assert len(C) == 2 and C[0] == P(tab, "u*u[x]")


def test_characteristic_parametrized_combination():
    tab = SymbolTable(["t", "x"], ["u"], params=["a1", "a2", "a3", "a4"])
    g = Generator((parse("a3 + 3*a2*t", tab), parse("a4 + a1*t + a2*x", tab)),
                  (parse("-a1 - 2*a2*u", tab),), parametrized=True)
    w = characteristic(g, tab)[0]
    expected = parse("-(a1 + 2*a2*u) - (a4 + a1*t + a2*x)*u[x]"
                     " - (a3 + 3*a2*t)*u[t]", tab)
    assert w == expected


# -- formal Lagrangian ----------------------------------------------------------

def test_formal_lagrangian_kdv():
    tab = SymbolTable(["t", "x"], ["u"], params=["v"])
    kdv = kdv_system(tab)
    L = formal_lagrangian(kdv, [parse("v", tab)])
    assert L == parse("v*(u[t] - u[x,x,x] - u*u[x])", tab)
    assert formal_lagrangian(kdv, [parse("0", tab)]).is_zero


def test_formal_lagrangian_sp():
    tab = SymbolTable(["t", "x"], ["u"], params=["v"])
    sp = PdeSystem("sp", tab, [Equation(tab.jet("u", ["t", "x"]),
                                        parse("u + u^2*u[x,x]/2 + u*u[x]^2", tab))])
    L = formal_lagrangian(sp, [parse("v", tab)])
    assert L == parse("v*(u[t,x] - u - u^2*u[x,x]/2 - u*u[x]^2)", tab)


def test_formal_lagrangian_length_mismatch(tab):
    with pytest.raises(ValueError):
        formal_lagrangian(kdv_system(tab), [])


# -- the conserved-vector formula -------------------------------------------------

def test_symmetry_flux_zero_lagrangian(tab):
    kdv = kdv_system(tab)
    g = kdv_generators(tab)["X2"]
    C = symmetry_flux(Expr(), g, kdv)
    assert all(c.is_zero for c in C)


def test_symmetry_flux_kdv_scaling_density(tab):
    kdv = kdv_system(tab)
    g = kdv_generators(tab)["X2"]
    L = formal_lagrangian(kdv, [P(tab, "u")])
    C = symmetry_flux(L, g, kdv)
    th = default_theta_ansatz(tab, degree=4)
    assert density_equivalent_mod_trivial(kdv, C[0], P(tab, "-3/2*u^2"),
                                          theta_ansatz=th, allow_scale=False)


def test_symmetry_flux_sp_mixed_derivative_convention():
    tab = SymbolTable(["t", "x"], ["u"], params=["v"])
    sp = PdeSystem("sp", tab, [Equation(tab.jet("u", ["t", "x"]),
                                        parse("u + u^2*u[x,x]/2 + u*u[x]^2", tab))])
    g = Generator((parse("1", tab), parse("0", tab)), (parse("0", tab),),
                  label="X1")
    L = formal_lagrangian(sp, [parse("v", tab)])
    C = symmetry_flux(L, g, sp)
    # the u[t,x] term enters through the two-ordering convention: each of
    # the ordered partials (t,x) and (x,t) carries v/2
    assert C[0] == parse("-v/2*u[t,x]", tab)


def test_symmetry_flux_any_order(tab):
    # the identity holds for Lagrangians above the order of the system
    kdv = kdv_system(tab)
    for text in ("u*u[x,x,x,x] + u[t]*u[t,x,x,x]", "x*u[x,x,x,x]^2",
                 "u[x]*u[t,x,x,x,x] + t*u^2*u[x,x,x,x,x]"):
        L = P(tab, text)
        for g in kdv_generators(tab).values():
            assert flux_identity_residual(L, g, kdv).is_zero


def test_omitting_xi_l_changes_by_on_solution_terms(tab):
    kdv = kdv_system(tab)
    g = kdv_generators(tab)["X2"]
    L = formal_lagrangian(kdv, [P(tab, "u")])
    C_on = symmetry_flux(L, g, kdv, include_xi_l=True)
    C_off = symmetry_flux(L, g, kdv, include_xi_l=False)
    for a, b in zip(C_on, C_off):
        assert kdv.reduce(a - b).is_zero


# -- the operator identity ---------------------------------------------------------

def test_flux_identity_kdv_grid(tab):
    kdv = kdv_system(tab)
    gens = kdv_generators(tab)
    for g in gens.values():
        for psi in ("1", "u", "x + t*u"):
            L = formal_lagrangian(kdv, [P(tab, psi)])
            assert flux_identity_residual(L, g, kdv).is_zero


def test_flux_identity_random_lagrangians(tab):
    hyp = pytest.importorskip("hypothesis")
    kdv = kdv_system(tab)
    g = kdv_generators(tab)["X2"]

    @hyp.settings(max_examples=10, deadline=None, derandomize=True)
    @hyp.given(L=jet_polys(hyp.strategies, tab, max_order=4, max_terms=3))
    def check(L):
        assert flux_identity_residual(L, g, kdv).is_zero

    check()


# -- multiplier determining system ---------------------------------------------------

def test_kdv_multiplier_space(tab):
    kdv = kdv_system(tab)
    basis = monomial_basis(tab, 2)
    _det, mults = solve_multipliers(kdv, [make_ansatz(basis, "v")])
    got = [m[0] for m in mults]
    assert expr_span_equal(got, [P(tab, "1"), P(tab, "u"), P(tab, "x + t*u")])


def test_kdv_multiplier_space_basis_order_invariant(tab):
    kdv = kdv_system(tab)
    basis = monomial_basis(tab, 2)
    rng = random.Random(42)
    reference = None
    for _ in range(3):
        shuffled = basis[:]
        rng.shuffle(shuffled)
        _det, mults = solve_multipliers(kdv, [make_ansatz(shuffled, "v")])
        got = [m[0] for m in mults]
        if reference is None:
            reference = got
        assert expr_span_equal(got, reference)


def test_fw_multiplier_space_is_constants_only(tab):
    # t and x are not multipliers of this equation: euler(t*F) = -1 and
    # euler(x*F) = -(u + 1) identically, so the degree-1 space is span{1}
    fw = PdeSystem("fw", tab, [Equation(
        tab.jet("u", ["t", "x", "x"]),
        P(tab, "u[t] - u*u[x,x,x] - 3*u[x]*u[x,x] + u*u[x] + u[x]"))])
    basis = monomial_basis(tab, 1)
    _det, mults = solve_multipliers(fw, [make_ansatz(basis, "v")])
    assert expr_span_equal([m[0] for m in mults], [P(tab, "1")])


def test_multiplier_empty_ansatz(tab):
    kdv = kdv_system(tab)
    det, mults = solve_multipliers(kdv, [Ansatz((), ())])
    assert mults == []
    assert det.shape == (0, 0)


def test_multiplier_ansatz_class_checked(tab):
    kdv = kdv_system(tab)
    with pytest.raises(AnsatzError):
        multiplier_determining_system(
            kdv, [make_ansatz([P(tab, "(1+u[x]^2)^(1/2)")], "v")])


def _reference_determining(system, ansatz_list):
    """The multiplier determining matrix composed from sorted `Expr`s at
    every stage: the formal Lagrangian, one `pdiff` per jet, one total
    derivative at a time, the Euler operator's sum built once and split by
    `collect`."""
    column = {p: i for i, p in enumerate(
        p for a in ansatz_list for p in a.unknowns)}
    L = formal_lagrangian(system, [a.expr for a in ansatz_list])
    jets = [a for a in L.atoms() if isinstance(a, Jet)]
    rows = []
    for alpha in range(system.table.m):
        terms = []
        for a in jets:
            if a.alpha == alpha:
                d = total_derivative_mi(pdiff(L, a), a.mi)
                terms += (d if a.order % 2 == 0 else -d).terms
        for form in collect(_build(terms), column).values():
            assert form.pop(None, 0) == 0
            rows.append({column[p]: c for p, c in form.items()})
    return RationalMatrix(rows, ncols=len(column))


def _user_model(vars_, equation):
    return (f"[vars]\nindependent: t, x\ndependent: u\n{vars_}\n"
            f"[equations]\nu[t] = {equation}\n")


# user models for the two paths of the determining system: a function
# symbol (normal forms), a fourth-order equation (long D chains, packed),
# large exponents, one of them negative (wide packed digits), and a fifth
# derivative under u^(-4): at degree 1, order 0 its D chain takes u's
# exponent to -9, out of the range the total degrees alone (1 + 5) would
# give the packed digits, so their width must count the jet orders too
PACKING_MODELS = {
    "function-symbol": _user_model("functions: f", "f(u)*u[x] + u[x,x]"),
    "fourth-order": _user_model("", "u[x,x,x,x] + u*u[x] + u[x,x]"),
    "large-exponent": _user_model("", "u^40*u[x] + x^(-3)*u[x,x]"),
    "negative-power": _user_model("", "u^(-4)*u[x,x,x,x,x] + u[x]"),
}
USER_MODELS = {**GRADING_MODELS, **OPAQUE_MODELS, **PACKING_MODELS}


def _multiplier_ansatz(models, name, degree, order):
    entry = (models[name] if name in models
             else parse_model_text(USER_MODELS[name]))
    basis = monomial_basis(entry.table, degree, jet_order=order)
    return entry.system, [make_ansatz(basis, f"v{i}_")
                          for i in range(len(entry.system.equations))]


# (model, degree, jet order): the multipliers-direct jobs of the benchmark,
# sp at order 1, two models whose equations hold opaque bases, a parameter,
# a fractional exponent, a function symbol, a fourth-order equation (at
# degree 7 its u^8 needs the ansatz degree in the packed width), large
# exponents and a negative power under a fifth derivative
DETERMINING_CASES = [("kdv", 4, 1), ("gas1d", 2, 1), ("fw", 3, 1),
                     ("gas3d", 1, 0), ("sp", 3, 1),
                     ("radical-heat", 2, 1), ("radical-heat", 3, 0),
                     ("radical-advection", 2, 1), ("kdv-c0", 3, 1),
                     ("fractional", 2, 1), ("function-symbol", 2, 1),
                     ("fourth-order", 2, 1), ("fourth-order", 7, 0),
                     ("large-exponent", 2, 1), ("negative-power", 1, 0)]


@pytest.mark.parametrize("name,degree,order", DETERMINING_CASES,
                         ids=[f"{n}-{d}-{o}" for n, d, o in DETERMINING_CASES])
def test_determining_system_matches_sorted_composition(models, name, degree,
                                                       order):
    """The determining matrix, built from accumulated terms sorted once per
    row set, equals the one composed from sorted expressions: the same
    rows in the same order, and the same columns."""
    system, ansatz = _multiplier_ansatz(models, name, degree, order)
    got = multiplier_determining_system(system, ansatz)
    want = _reference_determining(system, ansatz)
    assert got.ncols == want.ncols
    assert got.sparse_rows == want.sparse_rows
    assert got.nrows > 0


@pytest.mark.parametrize("name,packed", [
    ("kdv", True), ("fw", True), ("sp", True), ("gas1d", True),
    ("gas3d", True), ("kdv-c0", True), ("fourth-order", True),
    ("large-exponent", True), ("negative-power", True),
    ("radical-heat", False),
    ("radical-advection", False), ("fractional", False),
    ("function-symbol", False)])
def test_packed_rows_run_exactly_where_every_factor_packs(models, name,
                                                          packed, monkeypatch):
    """The packed determining system runs on every built-in and on
    integer powers of atoms, parameters included, and declines opaque
    bases, fractional exponents and function symbols; where it runs, the
    normal-form path is not entered, so a silent fallback cannot pass, and
    the matrix reads its rows in the order that `_packed_rows` returns."""
    system, ansatz = _multiplier_ansatz(models, name, 1, 0)
    got = _packed_rows(system, ansatz, _columns(ansatz))
    assert (got is not None) == packed
    if packed:
        rows, order = got
        monkeypatch.setattr(lawgen, "_lagrangian", None)
        assert multiplier_determining_system(system, ansatz).sparse_rows == \
            [rows[i] for i in order()]


def test_multiplier_route_never_orders_the_packed_rows(models, monkeypatch,
                                                        capsys):
    """Solving a packed determining system, and the `multipliers` command,
    never put its rows in order; a later read of the rows runs the order
    once and gives the normal-form path's rows."""
    from clawforge.cli import main
    calls, ordered = [], lawgen._packed_order

    def counted(*args):
        calls.append(args)
        return ordered(*args)
    monkeypatch.setattr(lawgen, "_packed_order", counted)
    system, ansatz = _multiplier_ansatz(models, "kdv", 4, 1)
    det, mults = solve_multipliers(system, ansatz)
    assert main(["multipliers", "kdv", "--degree", "4", "--order", "1"]) == 0
    assert capsys.readouterr().out.startswith(
        f"determining system: {det.nrows} equations")
    assert calls == [] and len(mults) == 3
    with monkeypatch.context() as m:
        m.setattr(lawgen, "_packed_rows", lambda *args: None)
        want = multiplier_determining_system(system, ansatz).sparse_rows
    assert det.sparse_rows == want and det.sparse_rows == want
    assert len(calls) == 1


# -- verification and triviality -------------------------------------------------------

def test_verify_examples(models):
    sp = models["sp"]
    tab = sp.table
    assert verify(sp.system, [parse("(1+u[x]^2)^(1/2)", tab),
                              parse("-u^2/2*(1+u[x]^2)^(1/2)", tab)]).is_zero
    gas = models["gas1d"]
    assert verify(gas.system, [parse("rho", gas.table),
                               parse("rho*u", gas.table)]).is_zero
    kdv = models["kdv"]
    assert verify(kdv.system, [parse("u^2", kdv.table),
                               parse("u[x]^2 - 2*u*u[x,x] - 2/3*u^3",
                                     kdv.table)]).is_zero


def test_verify_nonzero_residual(tab):
    kdv = kdv_system(tab)
    r = verify(kdv, [P(tab, "u"), P(tab, "u")])
    assert not r.is_zero


def test_is_trivial_curl(tab):
    kdv = kdv_system(tab)
    t, x = tab.indep
    theta = P(tab, "u^2")
    T = [total_derivative(theta, x), -total_derivative(theta, t)]
    rep = is_trivial(kdv, T)
    assert rep.trivial and rep.kind == "curl"
    assert rep.witness == theta


def test_is_trivial_vanishing(tab):
    kdv = kdv_system(tab)
    F = P(tab, "u[t] - u[x,x,x] - u*u[x]")
    rep = is_trivial(kdv, [F * P(tab, "u"), P(tab, "0")])
    assert rep.trivial and rep.kind == "vanishing"


def test_kdv_density_u_law_not_trivial(tab):
    kdv = kdv_system(tab)
    rep = is_trivial(kdv, [P(tab, "u"), P(tab, "-(u^2/2 + u[x,x])")],
                     theta_ansatz=default_theta_ansatz(tab, degree=3))
    assert not rep.trivial


def test_is_trivial_witness_class_checked(tab):
    kdv = kdv_system(tab)
    bad = make_ansatz([P(tab, "(1+u[x]^2)^(1/2)")], "th")
    with pytest.raises(AnsatzError):
        is_trivial(kdv, [P(tab, "u"), P(tab, "u")], theta_ansatz=bad)


def test_vectors_equivalent_up_to_scale(tab):
    kdv = kdv_system(tab)
    A = [P(tab, "u"), P(tab, "-(u^2/2 + u[x,x])")]
    B = [P(tab, "-3*u"), P(tab, "3*(u^2/2 + u[x,x])")]
    assert vectors_equivalent_mod_trivial(kdv, A, B)
    C = [P(tab, "u^2"), P(tab, "u[x]^2 - 2*u*u[x,x] - 2/3*u^3")]
    assert not vectors_equivalent_mod_trivial(kdv, A, C)


# -- self-adjointness --------------------------------------------------------------

def test_self_adjointness_examples(models):
    kdv = models["kdv"]
    tab = kdv.table
    for psi in ("1", "u", "x + t*u"):
        assert self_adjointness_check(kdv.system, [parse(psi, tab)]).holds
    bad = self_adjointness_check(kdv.system, [parse("u^2", tab)])
    assert not bad.holds
    assert bad.residuals[0] == parse("6*u[x]*u[x,x]", tab)
    fw = models["fw"]
    assert self_adjointness_check(fw.system, [parse("1", fw.table)]).holds


def test_self_adjointness_rejects_unknowns():
    tab = SymbolTable(["t", "x"], ["u"], params=["c0"])
    kdv = kdv_system(tab)
    with pytest.raises(ValueError):
        self_adjointness_check(kdv, [parse("c0*u", tab)])
    # an ansatz unknown, named like the parameter c0
    with pytest.raises(ValueError):
        self_adjointness_check(kdv, [make_ansatz([parse("u", tab)], "c").expr])


# -- the mixed pipeline --------------------------------------------------------------

def test_mixed_kdv_x4_recovers_density_u_law(tab):
    kdv = kdv_system(tab)
    g = kdv_generators(tab)["X4"]
    psi = [make_ansatz([P(tab, "1"), P(tab, "u"), P(tab, "x"), P(tab, "t*u")],
                       "p")]
    hb = monomial_basis(tab, 2)
    h = [make_ansatz(hb, "h1_"), make_ansatz(hb, "h2_")]
    result = mixed_method(kdv, g, psi, h)
    assert len(result.laws) >= 1
    ref = [P(tab, "-u"), P(tab, "u^2/2 + u[x,x]")]
    assert any(vectors_equivalent_mod_trivial(kdv, law.components, ref)
               for law in result.laws)
    for law in result.laws:
        assert law.residual.is_zero
        assert not is_trivial(kdv, law.components).trivial
        assert verify(kdv, law.stripped).is_zero


def test_mixed_kdv_scaling_and_time_translation_branches(tab):
    # the scaling run carries the -3/2*u^2-density law and the
    # time-translation run the u^2-density law; the leftover differences
    # are curls with degree-4 witnesses such as t*u^3
    kdv = kdv_system(tab)
    gens = kdv_generators(tab)
    hb = monomial_basis(tab, 2)
    th4 = default_theta_ansatz(tab, degree=4, jet_order=2)
    targets = {
        "X2": [P(tab, "-3/2*u^2"),
               P(tab, "-3/2*(u[x]^2 - 2*u*u[x,x] - 2/3*u^3)")],
        "X3": [P(tab, "u^2"), P(tab, "u[x]^2 - 2*u*u[x,x] - 2/3*u^3")],
    }
    for label, ref in targets.items():
        psi = [make_ansatz([P(tab, s) for s in ("1", "u", "x", "t*u")], "p")]
        h = [make_ansatz(hb, "h1_"), make_ansatz(hb, "h2_")]
        result = mixed_method(kdv, gens[label], psi, h)
        assert any(vectors_equivalent_mod_trivial(kdv, law.components, ref,
                                                  theta_ansatz=th4)
                   for law in result.laws), label


def test_mixed_kdv_galilei_recovers_density_u_law(tab):
    # the galilei run reproduces the same law as the space translation
    kdv = kdv_system(tab)
    g = kdv_generators(tab)["X1"]
    psi = [make_ansatz([P(tab, s) for s in ("1", "u", "x", "t*u")], "p")]
    hb = monomial_basis(tab, 2)
    h = [make_ansatz(hb, "h1_"), make_ansatz(hb, "h2_")]
    result = mixed_method(kdv, g, psi, h)
    ref = [P(tab, "-u"), P(tab, "u^2/2 + u[x,x]")]
    assert any(vectors_equivalent_mod_trivial(kdv, law.components, ref)
               for law in result.laws)


def test_mixed_pure_symmetry_subcase_flagged(tab):
    kdv = kdv_system(tab)
    g = kdv_generators(tab)["X4"]
    psi = [make_ansatz([P(tab, "1"), P(tab, "u"), P(tab, "x"), P(tab, "t*u")],
                       "p")]
    hb = monomial_basis(tab, 2)
    h = [make_ansatz(hb, "h1_"), make_ansatz(hb, "h2_")]
    result = mixed_method(kdv, g, psi, h)
    assert any(law.h_is_zero for law in result.laws)


def test_mixed_zero_ansatz_empty(tab):
    kdv = kdv_system(tab)
    g = kdv_generators(tab)["X4"]
    result = mixed_method(kdv, g, [Ansatz((), ())],
                          [Ansatz((), ()), Ansatz((), ())])
    assert result.laws == [] and result.trivial == []
    assert result.solution_dimension == 0


def test_mixed_rejects_parametrized_generator():
    tab = SymbolTable(["t", "x"], ["u"], params=["a1"])
    kdv = kdv_system(tab)
    g = Generator((parse("a1", tab), parse("0", tab)), (parse("0", tab),),
                  parametrized=True)
    with pytest.raises(ValueError):
        mixed_method(kdv, g, [Ansatz((), ())], [Ansatz((), ()), Ansatz((), ())])


def test_mixed_ansatz_class_checked(tab):
    kdv = kdv_system(tab)
    g = kdv_generators(tab)["X4"]
    radical = make_ansatz([P(tab, "(1+u[x]^2)^(1/2)")], "h")
    with pytest.raises(AnsatzError):
        mixed_method(kdv, g, [make_ansatz([P(tab, "1")], "p")],
                     [radical, Ansatz((), ())])


def test_fluxes_from_multipliers_kdv(tab):
    kdv = kdv_system(tab)
    gens = [tab.indep[0], tab.indep[1], tab.jet("u"), tab.jet("u", ["x"]),
            tab.jet("u", ["x", "x"])]
    hb = monomial_basis(tab, 4, gens=gens)
    phi = fluxes_from_multipliers(kdv, [P(tab, "x + t*u")],
                                  [make_ansatz(hb, "h1_"),
                                   make_ansatz(hb, "h2_")])
    assert phi is not None
    assert verify(kdv, list(phi)).is_zero
    ref = [P(tab, "t*u^2/2 + x*u"),
           P(tab, "u[x] + t*(u[x]^2/2 - u*u[x,x] - u^3/3)"
                  " - x*(u^2/2 + u[x,x])")]
    assert vectors_equivalent_mod_trivial(kdv, list(phi), ref)


def test_fluxes_from_multipliers_infeasible_ansatz(tab):
    kdv = kdv_system(tab)
    phi = fluxes_from_multipliers(kdv, [P(tab, "x + t*u")],
                                  [make_ansatz([P(tab, "1")], "h1_"),
                                   make_ansatz([P(tab, "1")], "h2_")])
    assert phi is None


def test_strip_preserves_verification(tab):
    kdv = kdv_system(tab)
    T = [P(tab, "u + u[x]*t*u"), P(tab, "-(u^2/2 + u[x,x]) - t*u*u[t] - u^2/2")]
    # T = density-u law plus the curl of t*u^2/2
    assert verify(kdv, T).is_zero
    stripped = strip_trivial(kdv, T)
    assert verify(kdv, list(stripped)).is_zero
    assert stripped[0] == P(tab, "u")
