"""Golden outputs: each fixed benchmark job, run in-process with `--json`,
must print exactly the bytes whose sha256 the benchmark recorded, and the
counts stated in the paper must hold.  The `verify gas3d` laws files of
three verify-seeded seeds must get the verdicts their construction fixes
and print the recorded bytes, and so must `mixed gas3d --generator X1`,
`verify gas3d gas3d` and ten `--verbose` mixed jobs, which print the
stripped laws and the trivial witnesses.  The `euler` command on radical
inputs, the one order-1 multiplier of sp, the self-adjointness
residuals, three more mixed runs, the fluxes of kdv's multipliers, a
model whose parameters are named like ansatz unknowns and three user
models whose witness spaces grade differently are pinned too.  This is
the gate for refactors that promise unchanged results."""

import contextlib
import hashlib
import io
import itertools
import random

import pytest

from clawforge.calculus import Prolongation
from clawforge.cli import main
from clawforge.corpus import builtin_models
from clawforge.expr import Param
from clawforge.lawgen import (fluxes_from_multipliers, formal_lagrangian,
                              make_ansatz, monomial_basis,
                              self_adjointness_check, symmetry_flux)
from clawforge.parse import parse

from helpers import GRADING_MODELS, perfbench_workloads

workloads = perfbench_workloads()

JOBS = [(job, digest) for jobs in workloads.FIXED_JOBS.values()
        for job, digest in jobs.items()]


@pytest.mark.parametrize("job,digest", JOBS, ids=[job for job, _ in JOBS])
def test_fixed_job_output_unchanged(job, digest):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(job.split() + ["--json"])
    out = buf.getvalue()
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert workloads.check_paper_counts(job, out)


def test_paper_counts_name_fixed_jobs():
    # the counts are checked only on jobs the test above runs
    assert set(workloads.PAPER_COUNTS) <= {job for job, _ in JOBS}


# sha256 of the `verify gas3d FILE --json` report of each laws file that
# workloads.verify_files(random.Random(VERIFY_SEED)) generates
VERIFY_SEED = 7
VERIFY_DIGESTS = (
    "0510e2d7fa3386fbe43c5a1413a8b39b89cf4e3b96921930027e5eeb90489496",
    "92028cc086a759d1fb707eead04db506d1778edb2e631ca2831754cae542dd05",
)


# the same for two more seeds
MORE_VERIFY_DIGESTS = {
    11: ("825565055df3547771cdda6da7b20a30496b8833f573b979a9c802e9c6ad1a19",
         "65ca8b096cad502eb1a7e894856926c3395109a2fa3eebf05b02f5437b99c0b9"),
    13: ("f1a444161589816b5e0f835c2feb00ff73b2c0d76dcf1c003bb22a570ce98318",
         "925921152e9c03aefc0384483942bf78d612ac431c7cdd53769fa12ecda1e73f"),
}


def _check_seeded_verify(tmp_path, seed, digests):
    files = workloads.verify_files(random.Random(seed))
    assert len(files) == len(digests)
    for i, ((text, expected), digest) in enumerate(zip(files, digests)):
        path = tmp_path / f"verify-{i}.laws"
        path.write_text(text, encoding="utf-8")
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = main(["verify", "gas3d", str(path), "--json"])
        out = buf.getvalue()
        assert workloads.check_verify_output(out, rc, expected)
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_seeded_verify_output_unchanged(tmp_path):
    _check_seeded_verify(tmp_path, VERIFY_SEED, VERIFY_DIGESTS)


@pytest.mark.parametrize("seed", list(MORE_VERIFY_DIGESTS))
def test_more_seeded_verify_output_unchanged(tmp_path, seed):
    _check_seeded_verify(tmp_path, seed, MORE_VERIFY_DIGESTS[seed])


# sha256 of two `--json` reports that no fixed job prints: the only mixed
# run with four independent variables, where the determining residual is
# largest, and the verdicts on the gas3d reference laws
LARGE_PINS = {
    "mixed gas3d --generator X1 --json":
        "d586d05b93bb55dbdab969fcb9ab376284b29d609104fb76ffbdb1b9ff6aa554",
    "verify gas3d gas3d --json":
        "7b00a949beec8b7018cb67ca1e9ca00452b31fe4eeeab7b7b3bd47bbb2b3635c",
}


@pytest.mark.parametrize("job,digest", LARGE_PINS.items(),
                         ids=list(LARGE_PINS))
def test_large_output_unchanged(job, digest):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(job.split())
    assert rc == 0
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest


# sha256 of `mixed kdv --generator X4 --verbose --json`: the trivial laws and
# their witnesses are printed only under --verbose, which no fixed job uses
VERBOSE_JOB = "mixed kdv --generator X4 --verbose --json"
VERBOSE_DIGEST = (
    "5f3e87e046ce0f0a4bb048e28540a81804857869a2346032377038615cfb0435")


def test_verbose_trivial_witnesses_unchanged():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(VERBOSE_JOB.split())
    out = buf.getvalue()
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERBOSE_DIGEST


# sha256 of `--verbose --json` of more mixed jobs, recorded like the pin
# above: the stripped forms and the trivial witnesses of every model with
# two independent variables
VERBOSE_PINS = {
    "mixed kdv --generator X2":
        "34b19ea8bdff99c37b73e1f1345345c97d3541e52d293923849dbe54587d9128",
    "mixed fw --generator X1":
        "205d9eba297b772eba2fd423d089d40aba457f69be6b2b56b0b0098b8e297302",
    "mixed sp --generator X3":
        "7550aa2c7b36ea09d6a6a242fef4f9eec6cbcf1799396eee49d16a7cb5f56841",
    "mixed gas1d --generator X0 --psi-degree 1":
        "5e9ed088c2212fe03c730e25f77381ab4498cc78af92a33d0b7e1a1a95e56bf2",
    # laws that reach several weight blocks of the witness space each
    "mixed gas1d --generator X1 --psi-degree 1":
        "7e5188575888954cbe2bd0e25adffff9db3a3bf1ea6df65a337c4952b57290b7",
    "mixed gas1d --generator X4 --psi-degree 1":
        "ca147d7b0893faf0cb5bd9cf993e0a224ca0ee86f54dacacff33a4cd2e38becf",
    "mixed sp --generator X1":
        "b7d1bc4b0739b3e1d2bfea6b59f679383648eb044379122c6ce2819c0e71e4df",
    "mixed fw --generator X3":
        "dde03a3ef8c78e781b0bb81db0bf68989019039bff18618b8732204451ac4ea3",
    "mixed kdv --generator X1":
        "f6f958358e72a961ca30f4c88c93966acd12e5131c910478714baed22bfa1745",
}


@pytest.mark.parametrize("job,digest", VERBOSE_PINS.items(),
                         ids=list(VERBOSE_PINS))
def test_verbose_mixed_output_unchanged(job, digest):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(job.split() + ["--verbose", "--json"])
    assert rc == 0
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest


# sha256 of the `models` listing in both forms, the same under any
# PYTHONHASHSEED: the titles and the generator and law names come from the
# built-in model texts
MODELS_PINS = {
    "models --json":
        "88d083a012380e34a369b15ecfd445a380581f7879ef373a775573f9ce3b7804",
    "models":
        "68e6bc4c6b495a5a1fca427f9a8706857b31a2ead7c5de00bba4e174e1981c58",
}


@pytest.mark.parametrize("job,digest", MODELS_PINS.items(),
                         ids=list(MODELS_PINS))
def test_models_listing_unchanged(job, digest):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(job.split())
    assert rc == 0
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest


# sha256 of the printed symmetry flux of every generator of each built-in
# model, with and without the xi*L term, for L = sum(v_a * F_a) with one
# fresh parameter per equation; and of every prolongation coefficient
# zeta^a_J with |J| <= 3 of every generator.  No fixed job reaches most of
# these generators (gas3d has 14).
FLUX_PINS = {
    "kdv":
        "d341d0750f9c7d69a515f62f860a2c4788ae6043ea755ef41be13bbd45ef6684",
    "fw":
        "86cc075857584ce7d1b885b8e6f885dec25a50aad156313272200b29dd4f7828",
    "sp":
        "52bf9b6a9998b9c7f05b795ab14da4c89a69c9383f2154a580c9089d87f69f5b",
    "gas1d":
        "eaa569daafb4c67eb212d01fd71e9c8f9bcf0a044e15a4cd62a9292bb7f1435b",
    "gas3d":
        "18a865a9e36db2d6e92154c34617839c7473faf36e7d35f4ea79b3c34fea8ea5",
}
PROLONG_PINS = {
    "kdv":
        "d8e474719cfb1ce5538403a8431ad1e779a82e00d89c5122e50c94b3cb19964b",
    "fw":
        "f4fb7fdc83ddc4b9b3ef306553d47042613a91b251582e1887f368d04e852231",
    "sp":
        "897d56b00e6db4529cafb4feb9800ea80b97c78a3c7838a612346b4ce01f4b91",
    "gas1d":
        "3473ba5ce36f1ad928ed81b87837af8826685d9e8fb02fce1fa8b501ed853902",
    "gas3d":
        "6a3d112e0b5ced726f54b1b94a8759e7eb86ec5128d818b1d15dd1d80233a57a",
}


def _flux_text(model):
    system = model.system
    L = formal_lagrangian(system, [Param(f"v{i}").as_expr()
                                   for i in range(len(system.equations))])
    lines = []
    for label, g in model.generators.items():
        for include_xi_l in (False, True):
            C = symmetry_flux(L, g, system, include_xi_l=include_xi_l)
            lines.append(f"{label} {include_xi_l}: " +
                         " | ".join(str(c) for c in C))
    return "\n".join(lines)


def _prolong_text(model):
    table = model.table
    lines = []
    for label, g in model.generators.items():
        pro = Prolongation(g, table)
        for alpha in range(table.m):
            for k in range(4):
                for J in itertools.combinations_with_replacement(table.indep, k):
                    lines.append(f"{label} {table.jet_by_alpha(alpha, J)!r}: "
                                 f"{pro.zeta(alpha, J)}")
    return "\n".join(lines)


@pytest.mark.parametrize("name", list(FLUX_PINS))
def test_symmetry_flux_unchanged(name):
    text = _flux_text(builtin_models()[name])
    assert hashlib.sha256(text.encode()).hexdigest() == FLUX_PINS[name]


@pytest.mark.parametrize("name", list(PROLONG_PINS))
def test_prolongation_unchanged(name):
    text = _prolong_text(builtin_models()[name])
    assert hashlib.sha256(text.encode()).hexdigest() == PROLONG_PINS[name]


# sha256 of `euler MODEL EXPR --var NAME --json` for one expression per
# built-in that holds a rational power of a polynomial base (and, in
# gas1d, a function symbol of a jet), for every dependent variable: the
# variational derivative reads every partial from one gradient, and these
# reach the chain rule through opaque bases and function arguments
EULER_EXPRS = {
    "kdv": "u*u[x,x]*(1 + u[x]^2)^(-1/2) + (u + t)^(-1)*u[x]^2",
    "fw": "u[t,x]*(1 + u^2)^(1/2) + u[x,x]^2*(u[x] + x)^(3/2)",
    "sp": "(u + t*u[t] - x*u[x])*u[x,x]*(1 + u[x]^2)^(-3/2)",
    "gas1d": "p*rho^(-2)*u[x] + f(u[x])*(rho + p[x])^(1/2)",
    "gas3d": "p*rho^(-5/3)*(u[x] + v[y] + w[z]) + "
             "(u^2 + v^2 + w^2)^(1/2)*rho[x]",
}
EULER_PINS = {
    ("kdv", "u"):
        "940173287b61d4afd8b17c0f51ffe8527e8e261ee518cab8f18b45768ca52d72",
    ("fw", "u"):
        "3d4184ecab778c38e6dc130a306ee75e9e2b158e1c49896a6e6dc363cd09426f",
    ("sp", "u"):
        "d85ee4b207b010e6a702bd7ffe8b3468e694f6f31b97200c296db149e22d7c8f",
    ("gas1d", "rho"):
        "b787e7008257261f68a8673f0d25c7d943f32a56c5f7b7bc0343df7d4b980ce8",
    ("gas1d", "u"):
        "9172d5375b790fd2e8c93b421c76eaa67079181de8139423f5fe93e76bd2fd72",
    ("gas1d", "p"):
        "8f1ec0987cb91c150fb0a967e5785d7dbe99932499d053bb1416e411a87a7161",
    ("gas3d", "rho"):
        "28a13d199bc34b2796e3e3772c4250cc28aff9a29000bee4f555fad758334fa3",
    ("gas3d", "u"):
        "29bb3caa7f0fe5c5956704ff62547994e0b1a6c0b9cf9a837bce464cb0586f65",
    ("gas3d", "v"):
        "a5529c4b57a69a042e466ce6a227c81cba7fa89cb10af11cb6f312e526a42284",
    ("gas3d", "w"):
        "1b12a4e13662d2501bdb9cacf611d07dc07477a436d1230d6286bbe28531cf18",
    ("gas3d", "p"):
        "131bb7ded83cc6aec0f54d67dd4576e924113dac59f16aa153b9de8595eae74b",
}


@pytest.mark.parametrize("model,var", list(EULER_PINS),
                         ids=[f"{m}-{v}" for m, v in EULER_PINS])
def test_euler_output_unchanged(model, var):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(["euler", model, EULER_EXPRS[model], "--var", var, "--json"])
    assert rc == 0
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == \
        EULER_PINS[model, var]


def test_sp_order_one_multiplier_unchanged():
    # the one multiplier u^2*u[x] - 2*u[t] passes the instantiated check
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main("multipliers sp --degree 3 --order 1 --json".split())
    out = buf.getvalue()
    assert rc == 0
    assert '"u^2*u[x] - 2*u[t]"' in out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "69d43012095bdac4c688120acfcc00cfdd139a82ba545906e4fa9a996df9804f")


# reduced residuals of euler(psi * F) per dependent variable: zero for kdv
# with psi = u (kdv is nonlinearly self-adjoint), and not for the others
SELF_ADJOINTNESS_PINS = [
    ("kdv", ("u",), ("0",)),
    ("kdv", ("x*u[x]",), ("-x*u[x]^2 + u*u[x] + 3*u[x,x,x]",)),
    ("gas1d", ("u", "rho", "p"), ("0", "-5*p*p[x]", "5*u[x]*p")),
    ("fw", ("u",), ("3*u[x]*u[x,x]",)),
]


@pytest.mark.parametrize("name,psi,residuals", SELF_ADJOINTNESS_PINS)
def test_self_adjointness_residuals_unchanged(name, psi, residuals):
    model = builtin_models()[name]
    report = self_adjointness_check(
        model.system, [parse(s, model.table) for s in psi])
    assert tuple(str(r) for r in report.residuals) == residuals
    assert report.holds == all(r == "0" for r in residuals)


def _digest(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    assert rc == 0
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


# sha256 of runs that instantiate many laws from one parametrized flux: a
# larger psi ansatz, the gas1d projective generator with its trivial laws
# and witnesses, and a combined generator
INSTANTIATION_PINS = {
    "mixed kdv --generator X4 --psi-degree 3 --json":
        "1a9728b28f6d90a4ad89d924812c5d657bcc1957ff68b310051445e373c9b819",
    "mixed gas1d --generator X13 --psi-degree 1 --verbose --json":
        "a2aa4142417c256d753e27b8c2184a4121a2edbee34ddb8ba425c2a5cebde2a0",
    "mixed kdv --generator X3+2*X4 --json":
        "3be2509864033364f8775fcbf784049b5dc13ad595b69e0e08c82fb7adb57aa7",
}


@pytest.mark.parametrize("job,digest", INSTANTIATION_PINS.items(),
                         ids=list(INSTANTIATION_PINS))
def test_instantiated_laws_unchanged(job, digest):
    assert _digest(job.split()) == digest


# a kdv model file whose parameters are named like the ansatz unknowns
# (p0_0, h0_0, h1_0 of mixed, v0_0 of multipliers, th0 of the witness
# space), and a variant whose equation holds one of them; an unknown never
# stands for a model parameter, so the first prints what kdv prints and
# the second treats p0_0 as a generic coefficient
COLLISION_MODEL = """
[model]
name: {name}

[vars]
independent: t, x
dependent: u
parameters: p0_0, h0_0, h1_0, v0_0, th0

[equations]
u[t] = u[x,x,x] + {coef}u*u[x]

[generators]
X4: x = 1

[ansatz]
psi_degree: 2
h_degree: 2
"""
COLLISION_PINS = {
    ("kdv-params", "", "mixed {} --generator X4 --json"):
        "8edcf4629fc30b315a328195c1c04cfc141e3fc432769e185aa5711525de54a9",
    ("kdv-params", "", "multipliers {} --degree 2 --json"):
        "67403bbbc014c95383ae3ad838ad5a9dd17b4d4117bcb246806caec95c3e45ff",
    ("kdv-param-in-equation", "p0_0*", "mixed {} --generator X4 --json"):
        "fdfa985013c9085d3b52609f94b431f50948fda09c18740f1c13a3f0cab2a977",
    ("kdv-param-in-equation", "p0_0*", "multipliers {} --degree 2 --json"):
        "c0ce98d510f2488f9f394e23534ff1cfe3c84ee27db1e17f0ddcf91798db7073",
}


@pytest.mark.parametrize("name,coef,job", list(COLLISION_PINS),
                         ids=[f"{n}-{j.split()[0]}" for n, _, j in COLLISION_PINS])
def test_parameters_named_like_unknowns(tmp_path, name, coef, job):
    path = tmp_path / f"{name}.model"
    path.write_text(COLLISION_MODEL.format(name=name, coef=coef),
                    encoding="utf-8")
    assert _digest(job.format(path).split()) == COLLISION_PINS[name, coef, job]


# sha256 of `mixed FILE --generator X1 --verbose --json` on user models
# whose witness spaces are one block (a parameter in the equation), are
# graded by scalings alone (a fractional exponent), and are graded by
# scalings and signs (heat)
GRADING_PINS = {
    "kdv-c0":
        "84cf77a1fb11beaa67e5eae3f86a35228fe2054b2a463446321434a5b9d675e2",
    "fractional":
        "dd240923a5ef599ca99fd802d6728f5beb05deb418194d47ac25ded7994127aa",
    "heat":
        "859c45fe3add02d7129a33e5e61595c4fc589bcf6a7a3758a781587a9542409e",
}


@pytest.mark.parametrize("name", list(GRADING_PINS))
def test_graded_witness_spaces_unchanged(tmp_path, name):
    path = tmp_path / f"{name}.model"
    path.write_text(GRADING_MODELS[name], encoding="utf-8")
    argv = ["mixed", str(path), "--generator", "X1", "--verbose", "--json"]
    assert _digest(argv) == GRADING_PINS[name]


# the fluxes of kdv's three multipliers over a degree-4 flux ansatz
FLUX_FROM_MULTIPLIER_PINS = {
    "1": ("u", "-1/2*u^2 - u[x,x]"),
    "u": ("1/2*u^2", "-u*u[x,x] - 1/3*u^3 + 1/2*u[x]^2"),
    "t*u + x": ("1/2*t*u^2 + x*u",
                "-t*u*u[x,x] - 1/3*t*u^3 + 1/2*t*u[x]^2 - 1/2*x*u^2 - "
                "x*u[x,x] + u[x]"),
}


def test_fluxes_from_multipliers_unchanged():
    kdv = builtin_models()["kdv"]
    table = kdv.table
    t, x = table.indep
    gens = [t, x] + [table.jet("u", mi) for mi in ((), ("x",), ("x", "x"))]
    basis = monomial_basis(table, 4, gens=gens)
    h = [make_ansatz(basis, "h0_"), make_ansatz(basis, "h1_")]
    for psi, fluxes in FLUX_FROM_MULTIPLIER_PINS.items():
        phi = fluxes_from_multipliers(kdv.system, [parse(psi, table)], h)
        assert tuple(str(c) for c in phi) == fluxes
