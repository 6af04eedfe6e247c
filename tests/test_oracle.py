"""An independent oracle for the printed laws of the benchmark's fixed
jobs and of the pinned `--verbose` and instantiation jobs: each law and
multiplier is read from the `--json` text by sympy (`helpers.SympyModel`),
with the model equations read from the model text the same way, so neither
clawforge's parser nor its normal forms decide the verdict."""

import json

import pytest

from clawforge.cli import main
from clawforge.corpus import get_model

from helpers import SympyModel, perfbench_workloads, sympy_is_zero, sympy_reduce
from test_golden import INSTANTIATION_PINS, LARGE_PINS, VERBOSE_PINS


def _run(capsys, job):
    assert main(job.split() + ["--json"]) == 0
    return json.loads(capsys.readouterr().out)


def _check_conserved(capsys, jobs, models):
    """The number of flux vectors the `--verbose --json` reports of `jobs`
    print, each asserted to have D_i T^i = 0 on solutions in sympy: every
    law's fluxes and raw fluxes, and every trivial law's fluxes."""
    checked = 0
    for job in jobs:
        payload = _run(capsys, job + " --verbose")   # a flag given twice is one
        name = job.split()[1]
        model = models.setdefault(name, SympyModel(get_model(name)))
        indep = model.indep
        for law in payload["laws"] + payload["trivial"]:
            # a trivial law prints its fluxes unstripped, with no raw_fluxes
            for key in {"fluxes", "raw_fluxes"} & law.keys():
                T = [model.read(c) for c in law[key]]
                div = sum(model.D(c, v) for c, v in zip(T, indep))
                assert sympy_is_zero(sympy_reduce(model, div)), (job, law[key])
                checked += 1
    return checked


def test_mixed_corpus_laws_are_conserved_in_sympy(capsys):
    """Every law a mixed-corpus job prints, with `--verbose` so that the
    trivial ones come too, and the raw fluxes of each, has D_i T^i = 0 on
    solutions in sympy; so does the
    galilei law of kdv, and a law with one flux sign flipped does not."""
    pytest.importorskip("sympy")
    models = {}
    jobs = perfbench_workloads().FIXED_JOBS["mixed-corpus"]
    assert _check_conserved(capsys, jobs, models) >= 20
    kdv = models["kdv"]
    good = [kdv.read("u"), kdv.read("-(u^2/2 + u[x,x])")]
    bad = [kdv.read("u"), kdv.read("-(u^2/2 - u[x,x])")]
    for T, conserved in ((good, True), (bad, False)):
        div = kdv.D(T[0], "t") + kdv.D(T[1], "x")
        assert sympy_is_zero(sympy_reduce(kdv, div)) is conserved


def test_pinned_mixed_laws_are_conserved_in_sympy(capsys):
    """Every law, raw flux and trivial law of the `VERBOSE_PINS`,
    `INSTANTIATION_PINS` and mixed `LARGE_PINS` jobs of `test_golden` has
    D_i T^i = 0 on solutions in sympy; the gas3d energy law does too, and
    does not without its pressure flux 2*p*u_i."""
    pytest.importorskip("sympy")
    models = {}
    jobs = (list(VERBOSE_PINS) + list(INSTANTIATION_PINS) +
            [job for job in LARGE_PINS if job.startswith("mixed")])
    assert _check_conserved(capsys, jobs, models) >= 300
    gas3d = models["gas3d"]
    density = "3*p + rho*(u^2 + v^2 + w^2)"
    for pressure, conserved in ((" + 2*p*{}", True), ("", False)):
        T = [gas3d.read(density)] + [
            gas3d.read(f"{c}*({density})" + pressure.format(c))
            for c in ("u", "v", "w")]
        div = sum(gas3d.D(c, v) for c, v in zip(T, gas3d.indep))
        assert sympy_is_zero(sympy_reduce(gas3d, div)) is conserved


def test_multipliers_direct_multipliers_pass_in_sympy(capsys):
    """Every multiplier tuple a multipliers-direct job prints satisfies
    E_u(sum_a Lambda_a F_a) = 0 for every dependent variable u, as a full
    jet-space identity in sympy; a wrong multiplier does not."""
    pytest.importorskip("sympy")
    for job in perfbench_workloads().FIXED_JOBS["multipliers-direct"]:
        payload = _run(capsys, job)
        model = SympyModel(get_model(job.split()[1]))
        assert payload["multipliers"], job
        for mult in payload["multipliers"]:
            L = sum(model.read(m) * (model.jet(*lead) - rhs)
                    for m, (lead, rhs) in zip(mult, model.equations))
            for name in model.dep:
                assert sympy_is_zero(model.euler(L, name)), (job, mult, name)
    kdv = SympyModel(get_model("kdv"))
    (lead, rhs), = kdv.equations
    L = kdv.read("u^2") * (kdv.jet(*lead) - rhs)
    assert not sympy_is_zero(kdv.euler(L, "u"))
