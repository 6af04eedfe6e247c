import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import clawforge
from clawforge.calculus import Equation, PdeSystem, symmetry_residual
from clawforge.corpus import TEXTS, builtin_models, get_model
from clawforge.expr import IndepVar, Jet, SymbolTable, ZERO, substitute
from clawforge.lawgen import verify
from clawforge.modelfile import laws_from_text
from clawforge.parse import parse


def test_model_directory(models):
    assert list(models) == ["kdv", "fw", "sp", "gas1d", "gas3d"]


def test_lookup_kdv(kdv):
    assert kdv.system.equations[0].lead == kdv.table.jet("u", ["t"])
    assert len(kdv.generators) == 4


def test_lookup_sp(sp):
    assert sp.system.equations[0].lead == sp.table.jet("u", ["t", "x"])
    assert len(sp.generators) == 3
    g = sp.generators["X3"]
    assert str(g.xi[0]) == "t" and str(g.xi[1]) == "-x" and str(g.eta[0]) == "-u"


def test_lookup_unknown():
    with pytest.raises(KeyError):
        get_model("nope")


def test_get_model_builds_only_the_named_model():
    """`builtin_models` reads the same per-name cache, and a run on kdv in
    a fresh process builds no other model, so interns no gas1d atom."""
    assert all(builtin_models()[name] is get_model(name) for name in TEXTS)
    src = Path(clawforge.__file__).resolve().parents[1]
    code = ("import contextlib, io, json\n"
            "from clawforge import cli, expr\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['mixed', 'kdv', '--generator', 'X4']) == 0\n"
            "print(json.dumps(sorted({a.name for a in expr._ATOMS.values()"
            " if hasattr(a, 'name')})))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0, proc.stderr
    names = json.loads(proc.stdout)
    assert "u" in names and "rho" not in names


def test_all_generators_admitted(models):
    for entry in models.values():
        for label, g in entry.generators.items():
            residuals = symmetry_residual(g, entry.system)
            assert all(r.is_zero for r in residuals), (entry.name, label)


def test_all_reference_laws_verify(models):
    for entry in models.values():
        for law in entry.laws.values():
            r = verify(entry.system, list(law.components))
            assert r.is_zero, (entry.name, law.name, str(r))


def test_statuses_and_notes(models):
    seen = set()
    for entry in models.values():
        for law in entry.laws.values():
            assert law.status in ("printed", "sign-corrected", "derived")
            seen.add(law.status)
            if law.status != "printed":
                assert law.note, (entry.name, law.name)
    assert seen == {"printed", "sign-corrected", "derived"}


def test_gas1d_model_has_expected_laws(gas1d):
    assert {"mass", "momentum", "energy", "center-of-mass",
            "dilation-1", "dilation-2"} <= set(gas1d.laws)


def test_gas_self_adjointness_substitutions(gas1d, gas3d):
    # with the momentum equations divided by rho in the solved form, the
    # verifying substitution is (|u|^2/2, rho*u_i, 1/(gamma-1)) per
    # (continuity, momenta, pressure)
    from clawforge.lawgen import self_adjointness_check
    tab = gas1d.table
    rep = self_adjointness_check(gas1d.system,
                                 [parse("u^2/2", tab), parse("rho*u", tab),
                                  parse("1/2", tab)])
    assert rep.holds
    tab3 = gas3d.table
    rep3 = self_adjointness_check(
        gas3d.system,
        [parse("(u^2+v^2+w^2)/2", tab3), parse("rho*u", tab3),
         parse("rho*v", tab3), parse("rho*w", tab3), parse("3/2", tab3)])
    assert rep3.holds


def test_gas1d_formal_function_family(gas1d):
    # rho*f(p*rho^(-gamma)) is advected for a formal f: exercises the chain
    # rule through function symbols with fractional powers during reduction
    tab = gas1d.table
    law = [parse("rho*f(p*rho^(-3))", tab), parse("rho*u*f(p*rho^(-3))", tab)]
    assert verify(gas1d.system, law).is_zero
    wrong = [parse("rho*f(p*rho^(-2))", tab), parse("rho*u*f(p*rho^(-2))", tab)]
    assert not verify(gas1d.system, wrong).is_zero


def test_gas3d_formal_function_family(gas3d):
    tab = gas3d.table
    f = "f(p*rho^(-5/3))"
    law = [parse(f"rho*{f}", tab), parse(f"rho*u*{f}", tab),
           parse(f"rho*v*{f}", tab), parse(f"rho*w*{f}", tab)]
    assert verify(gas3d.system, law).is_zero


def test_gas3d_f_instances(gas3d):
    # the constant instance is the mass law; the p*rho^(-gamma) instance is
    # the entropy-like advected density
    assert "mass" in gas3d.laws
    assert "entropy" in gas3d.laws
    entropy = gas3d.laws["entropy"]
    assert "rho^(-2/3)" in str(entropy.components[0])


def _specialize_to_2d(e, table3, table2):
    """Drop the third space dimension: w-jets and z-bearing jets vanish,
    z itself goes to zero, and the surviving atoms map onto the 2-D table."""
    z = table3.indep_var("z")
    subs = {a: ZERO for a in e.atoms() if isinstance(a, Jet) and
            (a.name == "w" or any(v.index == z.index for v in a.mi))}
    subs[z] = ZERO
    return parse(str(substitute(e, subs)), table2)


def test_gas3d_specializes_to_2d(gas3d):
    """Setting the third coordinate and velocity component to zero turns the
    3-D laws into 2-D laws of the gamma = 5/3 plane system.  The dilation
    laws are excluded: they hold only when gamma = (n+2)/n matches the space
    dimension."""
    table3 = gas3d.table
    table2 = SymbolTable(["t", "x", "y"], ["rho", "u", "v", "p"])
    P2 = lambda s: parse(s, table2)
    gas2 = PdeSystem("gas2d", table2, [
        Equation(table2.jet("rho", ["t"]),
                 P2("-(u*rho[x] + v*rho[y]) - rho*(u[x] + v[y])")),
        Equation(table2.jet("u", ["t"]), P2("-(u*u[x] + v*u[y]) - p[x]/rho")),
        Equation(table2.jet("v", ["t"]), P2("-(u*v[x] + v*v[y]) - p[y]/rho")),
        Equation(table2.jet("p", ["t"]),
                 P2("-(u*p[x] + v*p[y]) - 5/3*p*(u[x] + v[y])")),
    ])
    for name, law in gas3d.laws.items():
        if name.startswith("dilation"):
            continue
        comps = [_specialize_to_2d(c, table3, table2)
                 for c in law.components[:3]]
        r = verify(gas2, comps)
        assert r.is_zero, (name, str(r))


def test_notes_document_discrepancies(models):
    kdv = models["kdv"].laws
    assert "u[x]^2/2" in kdv["density-u"].note
    gas3d = models["gas3d"].laws
    assert "velocity-bearing" in gas3d["energy"].note


def test_startup_loads_no_dataclasses_and_parses_no_builtin_laws():
    # a fresh process, since this one has read the built-in laws already
    src = Path(clawforge.__file__).resolve().parents[1]
    code = ("import json, sys\n"
            "import clawforge.cli\n"
            "from clawforge import corpus\n"
            "models = corpus.builtin_models()\n"
            "print(json.dumps({'modules': sorted({'dataclasses', 'inspect'}"
            " & set(sys.modules)), 'parsed': [name for name, m in"
            " models.items() if 'laws' in vars(m)]}))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"modules": [], "parsed": []}


def test_builtin_laws_read_lazily_match_the_text(models):
    for name, model in models.items():
        want = laws_from_text(TEXTS[name], model.table)
        got = model.laws
        assert list(got) == list(want), name
        for a, b in zip(got.values(), want.values()):
            assert (a.name, a.components, a.status, a.note) == \
                (b.name, b.components, b.status, b.note), (name, a.name)
