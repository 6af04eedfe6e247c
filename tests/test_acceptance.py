"""Acceptance suite: one test per criterion, each printing a PASS line and
holding to its runtime budget.  All arithmetic is exact, so every tolerance
is exact equality of normal forms."""

import json
import time

import pytest

from clawforge.calculus import divergence, euler, total_derivative
from clawforge.cli import main
from clawforge.corpus import get_model
from clawforge.lawgen import (default_theta_ansatz, density_equivalent_mod_trivial,
                              formal_lagrangian, is_trivial,
                              make_ansatz, mixed_method, monomial_basis,
                              flux_identity_residual, self_adjointness_check,
                              solve_multipliers, vectors_equivalent_mod_trivial,
                              verify)
from clawforge.linsolve import RationalMatrix
from clawforge.modelfile import ansatz_spaces
from clawforge.parse import parse

from helpers import expr_span_equal, jet_polys, rank, two_var_table


def _report(criterion, detail=""):
    print(f"ACCEPTANCE {criterion}: PASS {detail}")


def test_criterion_1_operator_stack():
    """euler annihilates divergences and total derivatives commute on
    random polynomial jet expressions."""
    hyp = pytest.importorskip("hypothesis")
    start = time.time()
    tab = two_var_table()
    t, x = tab.indep
    polys = jet_polys(hyp.strategies, tab, max_order=3)
    count = 0

    @hyp.settings(max_examples=100, deadline=None, derandomize=True)
    @hyp.given(e1=polys, e2=polys)
    def check(e1, e2):
        nonlocal count
        assert euler(divergence([e1, e2], tab), 0, tab).is_zero
        assert total_derivative(total_derivative(e1, t), x) == \
            total_derivative(total_derivative(e1, x), t)
        assert total_derivative(total_derivative(e2, t), x) == \
            total_derivative(total_derivative(e2, x), t)
        count += 2

    check()
    elapsed = time.time() - start
    assert elapsed < 60
    _report(1, f"({count} expressions, {elapsed:.1f}s)")


def test_criterion_2_flux_identity():
    """The operator identity behind the symmetry flux formula holds exactly
    on the KdV and Short Pulse grids."""
    start = time.time()
    checked = 0
    for key in ("kdv", "sp"):
        entry = get_model(key)
        tab = entry.table
        for g in entry.generators.values():
            for psi in ("1", "u", "x + t*u"):
                L = formal_lagrangian(entry.system, [parse(psi, tab)])
                assert flux_identity_residual(L, g, entry.system).is_zero, \
                    (key, g.label, psi)
                checked += 1
    elapsed = time.time() - start
    assert elapsed < 30
    _report(2, f"({checked} grid points, {elapsed:.1f}s)")


def test_criterion_3_kdv_multipliers():
    """Degree-2 multiplier space of KdV equals span{1, u, x + t*u}."""
    start = time.time()
    entry = get_model("kdv")
    tab = entry.table
    basis = monomial_basis(tab, 2)
    _det, mults = solve_multipliers(entry.system, [make_ansatz(basis, "v")])
    got = [m[0] for m in mults]
    expected = [parse(s, tab) for s in ("1", "u", "x + t*u")]
    assert expr_span_equal(got, expected)
    elapsed = time.time() - start
    assert elapsed < 10
    _report(3, f"(dimension {len(got)}, {elapsed:.1f}s)")


def test_criterion_4_reference_laws():
    """Residual exactly zero for the stored reference laws: the Short Pulse
    radical law as printed, the 1-D gas laws, the 3-D gas family at each
    unit coefficient and the constant-f instance, and the sign-corrected
    KdV laws (discrepancies are logged in the law notes, not hidden)."""
    start = time.time()
    must_have = {
        "sp": {"radical"},
        "gas1d": {"mass", "momentum", "energy"},
        "gas3d": {"angular-x", "angular-y", "angular-z", "energy",
                  "dilation-1", "dilation-2", "center-x", "center-y",
                  "center-z", "momentum-x", "momentum-y", "momentum-z",
                  "mass"},
        "kdv": {"density-u", "density-u2"},
    }
    checked = 0
    for key, names in must_have.items():
        entry = get_model(key)
        assert names <= set(entry.laws), (key, names)
        for law in entry.laws.values():
            residual = verify(entry.system, list(law.components))
            assert residual.is_zero, (key, law.name, str(residual))
            checked += 1
    kdv = get_model("kdv")
    for name in ("density-u", "density-u2"):
        assert kdv.laws[name].status == "sign-corrected"
        assert kdv.laws[name].note
    elapsed = time.time() - start
    assert elapsed < 120
    _report(4, f"({checked} laws, {elapsed:.1f}s)")


def test_criterion_5_mixed_method():
    """The mixed pipeline reproduces the published results: the FW run
    yields independent nontrivial laws with the stated density, the KdV run
    yields the T1 = -u law, and every emitted law re-verifies exactly and
    passes the nontriviality filter."""
    start = time.time()

    fw = get_model("fw")
    tabf = fw.table
    spaces = ansatz_spaces(fw)  # psi degree 1, H degree 2
    result_fw = mixed_method(fw.system, fw.generators["X1"],
                             spaces["psi"], spaces["h"],
                             theta_ansatz=spaces["theta"])
    assert len(result_fw.laws) >= 2
    # independent: the laws' coefficient vectors, keyed by (component,
    # monomial), have full rank
    maps = [{(i, f): c for i, comp in enumerate(law.components)
             for c, f in comp.terms} for law in result_fw.laws]
    keys = list(dict.fromkeys(k for m in maps for k in m))
    vectors = [[m.get(k, 0) for k in keys] for m in maps]
    assert rank(RationalMatrix(vectors)) == len(result_fw.laws)
    target = parse("u - 5/3*t*u[t]", tabf)
    theta = default_theta_ansatz(tabf, degree=3, jet_order=2)
    assert any(density_equivalent_mod_trivial(fw.system, law.components[0],
                                              target, theta_ansatz=theta)
               for law in result_fw.laws)

    kdv = get_model("kdv")
    tabk = kdv.table
    psi = [make_ansatz([parse(s, tabk) for s in ("1", "u", "x", "t*u")], "p")]
    hb = monomial_basis(tabk, 2)
    h = [make_ansatz(hb, "h1_"), make_ansatz(hb, "h2_")]
    result_kdv = mixed_method(kdv.system, kdv.generators["X4"], psi, h)
    ref = [parse("-u", tabk), parse("u^2/2 + u[x,x]", tabk)]
    assert any(vectors_equivalent_mod_trivial(kdv.system, law.components, ref)
               for law in result_kdv.laws)

    emitted = 0
    for entry, result in ((fw, result_fw), (kdv, result_kdv)):
        for law in result.laws:
            assert verify(entry.system, list(law.components)).is_zero
            assert not is_trivial(entry.system, list(law.components)).trivial
            emitted += 1
    elapsed = time.time() - start
    assert elapsed < 120
    _report(5, f"({emitted} emitted laws, {elapsed:.1f}s)")


def test_criterion_6_self_adjointness():
    """Adjoint residual zero for FW with psi = 1 and KdV with psi in
    {1, u, x + t*u}; nonzero for KdV with psi = u^2."""
    start = time.time()
    fw = get_model("fw")
    assert self_adjointness_check(fw.system, [parse("1", fw.table)]).holds
    kdv = get_model("kdv")
    for psi in ("1", "u", "x + t*u"):
        assert self_adjointness_check(kdv.system,
                                      [parse(psi, kdv.table)]).holds
    assert not self_adjointness_check(kdv.system,
                                      [parse("u^2", kdv.table)]).holds
    elapsed = time.time() - start
    assert elapsed < 10
    _report(6, f"({elapsed:.1f}s)")


def test_criterion_7_triviality_filter():
    """Twenty constructed trivial laws are all flagged trivial; the KdV
    density-u law is flagged nontrivial."""
    start = time.time()
    kdv = get_model("kdv")
    system = kdv.system
    tab = kdv.table
    t, x = tab.indep
    P = lambda s: parse(s, tab)
    F = system.equations[0].expr
    thetas = ["u^2", "t*u", "x*u^3", "t^2*x", "u*u[x]", "u[x]^2",
              "x*u*u[x]", "t*u[x,x]", "u^3 - t*u", "x^2*u^2"]
    constructed = []
    for th in thetas:
        e = P(th)
        constructed.append([total_derivative(e, x), -total_derivative(e, t)])
    multipliers = ["1", "u", "x", "t*u", "u[x]",
                   "u^2", "t", "x*u", "u[x,x]", "t*x"]
    for i, m in enumerate(multipliers):
        vanishing = P(m) * F
        constructed.append([vanishing, P("0")] if i % 2 == 0
                           else [P("0"), vanishing])
    assert len(constructed) == 20
    theta = default_theta_ansatz(tab, degree=4, jet_order=2)
    for i, T in enumerate(constructed):
        assert is_trivial(system, T, theta_ansatz=theta).trivial, (i,)
    law = [P("u"), P("-(u^2/2 + u[x,x])")]
    assert not is_trivial(system, law, theta_ansatz=theta).trivial
    elapsed = time.time() - start
    assert elapsed < 30
    _report(7, f"(20 trivial + 1 nontrivial, {elapsed:.1f}s)")


def test_criterion_8_cli_contract(tmp_path, capsys):
    """The three verify scenarios exit 0/0/1 and machine-readable output
    re-parses through the expression grammar."""
    start = time.time()
    corrected = tmp_path / "kdv.laws"
    corrected.write_text("[laws]\n"
                         "density-u: u | -(u^2/2 + u[x,x])\n"
                         "density-u2: u^2 | u[x]^2 - 2*u*u[x,x] - 2/3*u^3\n")
    assert main(["verify", "kdv", str(corrected)]) == 0
    capsys.readouterr()

    radical = tmp_path / "sp.laws"
    radical.write_text("[laws]\n"
                       "radical: (1 + u[x]^2)^(1/2) | "
                       "-u^2/2*(1 + u[x]^2)^(1/2)\n")
    assert main(["verify", "sp", str(radical)]) == 0
    capsys.readouterr()

    bogus = tmp_path / "bogus.laws"
    bogus.write_text("[laws]\nbogus: u | u\n")
    assert main(["verify", "kdv", str(bogus)]) == 1
    out = capsys.readouterr().out
    assert "residual" in out

    assert main(["verify", "kdv", str(corrected), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    table = get_model("kdv").table
    for law in payload["laws"]:
        parse(law["residual"], table)
        for comp in law["fluxes"]:
            parse(comp, table)
    elapsed = time.time() - start
    _report(8, f"(exit codes 0/0/1, JSON round-trip, {elapsed:.1f}s)")
