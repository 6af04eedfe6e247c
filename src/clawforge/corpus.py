"""Built-in models and reference conservation laws.

Fixtures are serialized in the model-file format so they exercise the same
parser as user input.  Reference laws carry a status: `printed` forms
verify exactly as commonly stated; `sign-corrected` and `derived` forms are
the nearest residual-zero variants of statements whose printed version does
not verify, with the discrepancy recorded in the law note rather than
silently fixed."""

from __future__ import annotations

from dataclasses import dataclass, field

from .calculus import symmetry_residual
from .lawgen import (expr_span_equal, make_ansatz, mixed_method,
                     monomial_basis, solve_multipliers, verify)
from .modelfile import ansatz_spaces, parse_model_text
from .parse import parse


KDV_TEXT = """
[model]
name: kdv

[vars]
independent: t, x
dependent: u

[equations]
u[t] = u[x,x,x] + u*u[x]

[generators]
X1: x = t; u = -1
X2: t = 3*t; x = x; u = -2*u
X3: t = 1
X4: x = 1

[laws]
density-u: u | -(u^2/2 + u[x,x])
density-u.status: sign-corrected
density-u.note: often stated with flux u[x]^2/2 + u[x,x], which leaves residual u[x]*(u - u[x,x]); the quadratic term must be u^2/2
density-u2: u^2 | u[x]^2 - 2*u*u[x,x] - 2/3*u^3
density-u2.status: sign-corrected
density-u2.note: often stated with the flux negated, which leaves residual 4*u*(u*u[x] + u[x,x,x])
galilei: t*u^2/2 + x*u | u[x] + t*(u[x]^2/2 - u*u[x,x] - u^3/3) - x*(u^2/2 + u[x,x])
galilei.status: derived
galilei.note: a common statement of the galilei law has flux -(x*u^2/2 + t*u*u[x,x] - t*u[x]^2/2 - x*u[x,x] + u[x]) and residual t*u^2*u[x] + 2*x*u[x,x,x]; this variant verifies
scaling: -3/2*u^2 | -3/2*(u[x]^2 - 2*u*u[x,x] - 2/3*u^3)
scaling.status: printed
neg-u: -u | u^2/2 + u[x,x]
neg-u.status: printed

[ansatz]
psi_degree: 2
h_degree: 2
"""

FW_TEXT = """
[model]
name: fw

[vars]
independent: t, x
dependent: u

[equations]
u[t,x,x] = u[t] - u*u[x,x,x] - 3*u[x]*u[x,x] + u*u[x] + u[x]

[generators]
X1: t = 1
X2: x = 1
X3: x = t; u = 1

[laws]
time-branch: u - 5/3*t*u[t] | -2/3*(u*(1 + u/2 - u[x,x]) - u[x]^2 - u[t,x]) - 5/3*t*(u[t]*(1 + u - u[x,x]) - 2*u[x]*u[t,x] - u*u[t,x,x] - u[t,t,x])
time-branch.status: printed
space-branch: 5/3*(u*(1 + u/2) - x*u[t]) | -5/3*(u*u[t,x] + u[x]*u[t] + u[t,t]) - 5/3*x*(u[t]*(1 + u - u[x,x]) - 2*u[x]*u[t,x] - u*u[t,x,x] - u[t,t,x])
space-branch.status: derived
space-branch.note: the x-free flux block is often stated as +5/3*(u[t]*u[x] + u[x,x] + u*u[t,x]); the verifying form is -5/3*(u*u[t,x] + u[x]*u[t] + u[t,t]).  This law is itself trivial: theta = 5/3*(x*(u + u^2/2 - u*u[x,x] - u[x]^2 - u[t,x]) + u*u[x] + u[t]) gives T = (D_x theta, -D_t theta) on solutions

[ansatz]
psi_degree: 1
h_degree: 2
"""

SP_TEXT = """
[model]
name: sp

[vars]
independent: t, x
dependent: u

[equations]
u[t,x] = u + u^2*u[x,x]/2 + u*u[x]^2

[generators]
X1: t = 1
X2: x = 1
X3: t = t; x = -x; u = -u

[laws]
radical: (1 + u[x]^2)^(1/2) | -u^2/2*(1 + u[x]^2)^(1/2)
radical.status: printed
poly: u^2 | -1/4*(u^4 + (u^2*u[x] - 2*u[t])^2)
poly.status: sign-corrected
poly.note: often stated as D_t(u^2) + D_x(...)/4 = 0 with positive flux, leaving residual 4*u*u[t]; the flux sign must be negative
dilation-f: 2*t*u*u[t] | -1/4*(u^4 + (u^2*u[x] - 2*u[t])^2) - t*(u^3*u[t] + (u^2*u[x] - 2*u[t])*(u*u[x]*u[t] - u[t,t] + u^2/2*u[t,x]))
dilation-f.status: printed
dilation-radical: (u + t*u[t] - x*u[x])*u[x,x]*(1 + u[x]^2)^(-3/2) | -(1 + u[x]^2)^(-1/2)*((u + t*u[t] - x*u[x])*u[t,x]/(1 + u[x]^2) - (u^2 + t*u*u[t])*(1 + u[x]^2) + u[x]*(2*u[t] + t*u[t,t] - t*u^2/2*u[t,x]))
dilation-radical.status: printed

[ansatz]
psi_degree: 0
h_degree: 6
h_jets: 1
h_vars: u
theta_degree: 7
theta_jets: 2
theta_vars: u
"""

GAS1D_TEXT = """
[model]
name: gas1d

[vars]
independent: t, x
dependent: rho, u, p
functions: f

[equations]
rho[t] = -(u*rho[x] + rho*u[x])
u[t] = -(u*u[x] + p[x]/rho)
p[t] = -(u*p[x] + 3*p*u[x])

[generators]
X0: t = 1
X1: x = 1
X4: t = t; x = x
X5: t = t; u = -u; p = -2*p
X6: rho = rho; p = p
X7: x = t; u = 1
X13: t = t^2; x = t*x; rho = -t*rho; u = x - t*u; p = -3*t*p

[laws]
mass: rho | rho*u
mass.status: printed
mass.note: differential form of the moving-volume statement
momentum: rho*u | rho*u^2 + p
momentum.status: printed
energy: rho*u^2/2 + p/2 | (rho*u^2/2 + 3/2*p)*u
energy.status: printed
center-of-mass: rho*(t*u - x) | rho*u*(t*u - x) + t*p
center-of-mass.status: printed
dilation-1: t*(rho*u^2 + p) - rho*x*u | u*(t*(rho*u^2 + p) - rho*x*u) + p*(2*t*u - x)
dilation-1.status: printed
dilation-2: t^2*(rho*u^2 + p) - rho*x*(2*t*u - x) | u*(t^2*(rho*u^2 + p) - rho*x*(2*t*u - x)) + 2*t*p*(t*u - x)
dilation-2.status: printed
"""

GAS3D_TEXT = """
[model]
name: gas3d

[vars]
independent: t, x, y, z
dependent: rho, u, v, w, p
functions: f

[equations]
rho[t] = -(u*rho[x] + v*rho[y] + w*rho[z]) - rho*(u[x] + v[y] + w[z])
u[t] = -(u*u[x] + v*u[y] + w*u[z]) - p[x]/rho
v[t] = -(u*v[x] + v*v[y] + w*v[z]) - p[y]/rho
w[t] = -(u*w[x] + v*w[y] + w*w[z]) - p[z]/rho
p[t] = -(u*p[x] + v*p[y] + w*p[z]) - 5/3*p*(u[x] + v[y] + w[z])

[generators]
X0: t = 1
X1: x = 1
X2: y = 1
X3: z = 1
X4: t = t; x = x; y = y; z = z
X5: t = t; u = -u; v = -v; w = -w; p = -2*p
X6: rho = rho; p = p
X7: x = t; u = 1
X8: y = t; v = 1
X9: z = t; w = 1
X10: x = y; y = -x; u = v; v = -u
X11: x = z; z = -x; u = w; w = -u
X12: y = z; z = -y; v = w; w = -v
X13: t = t^2; x = t*x; y = t*y; z = t*z; rho = -3*t*rho; u = x - t*u; v = y - t*v; w = z - t*w; p = -5*t*p

[laws]
angular-x: -rho*(w*y - v*z) | -u*rho*(w*y - v*z) | -v*rho*(w*y - v*z) + p*z | -w*rho*(w*y - v*z) - p*y
angular-x.status: printed
angular-y: -rho*(w*x - u*z) | -u*rho*(w*x - u*z) + p*z | -v*rho*(w*x - u*z) | -w*rho*(w*x - u*z) - p*x
angular-y.status: sign-corrected
angular-y.note: the density is often stated as -rho*(w*x + u*z); the verifying form needs -u*z, leaving residual 2*(p[x]*z - rho*u*w) otherwise
angular-z: -rho*(u*y - v*x) | -u*rho*(u*y - v*x) - p*y | -v*rho*(u*y - v*x) + p*x | -w*rho*(u*y - v*x)
angular-z.status: sign-corrected
angular-z.note: the pressure fluxes are often stated as +t*y*p and -t*x*p; the verifying fluxes are -y*p and +x*p without the time factor
energy: 3*p + rho*(u^2 + v^2 + w^2) | u*(3*p + rho*(u^2 + v^2 + w^2)) + 2*p*u | v*(3*p + rho*(u^2 + v^2 + w^2)) + 2*p*v | w*(3*p + rho*(u^2 + v^2 + w^2)) + 2*p*w
energy.status: derived
energy.note: statements omitting the velocity-bearing pressure flux 2*p*u_i leave residual -2*(p*div(u) + u.grad(p))
dilation-1: t*(3*p + rho*(u^2 + v^2 + w^2)) - rho*(u*x + v*y + w*z) | u*(t*(3*p + rho*(u^2 + v^2 + w^2)) - rho*(u*x + v*y + w*z)) + p*(2*t*u - x) | v*(t*(3*p + rho*(u^2 + v^2 + w^2)) - rho*(u*x + v*y + w*z)) + p*(2*t*v - y) | w*(t*(3*p + rho*(u^2 + v^2 + w^2)) - rho*(u*x + v*y + w*z)) + p*(2*t*w - z)
dilation-1.status: derived
dilation-1.note: statements omitting the 2*t*p*u_i part of the pressure flux do not verify
dilation-2: t^2*(3*p + rho*(u^2 + v^2 + w^2)) - 2*t*rho*(u*x + v*y + w*z) + rho*(x^2 + y^2 + z^2) | u*(t^2*(3*p + rho*(u^2 + v^2 + w^2)) - 2*t*rho*(u*x + v*y + w*z) + rho*(x^2 + y^2 + z^2)) + p*(2*t^2*u - 2*t*x) | v*(t^2*(3*p + rho*(u^2 + v^2 + w^2)) - 2*t*rho*(u*x + v*y + w*z) + rho*(x^2 + y^2 + z^2)) + p*(2*t^2*v - 2*t*y) | w*(t^2*(3*p + rho*(u^2 + v^2 + w^2)) - 2*t*rho*(u*x + v*y + w*z) + rho*(x^2 + y^2 + z^2)) + p*(2*t^2*w - 2*t*z)
dilation-2.status: derived
dilation-2.note: the time-squared block is often stated with an extra factor 2 on t^2 and without the 2*t^2*p*u_i flux; this variant verifies
center-x: rho*(t*u - x) | u*rho*(t*u - x) + p*t | v*rho*(t*u - x) | w*rho*(t*u - x)
center-x.status: printed
center-y: rho*(t*v - y) | u*rho*(t*v - y) | v*rho*(t*v - y) + p*t | w*rho*(t*v - y)
center-y.status: printed
center-z: rho*(t*w - z) | u*rho*(t*w - z) | v*rho*(t*w - z) | w*rho*(t*w - z) + p*t
center-z.status: sign-corrected
center-z.note: the density is often stated as rho*(t*w + z), leaving residual 2*rho*w; the pattern of the other components requires -z
momentum-x: rho*u | rho*u^2 + p | rho*u*v | rho*u*w
momentum-x.status: printed
momentum-y: rho*v | rho*u*v | rho*v^2 + p | rho*v*w
momentum-y.status: printed
momentum-z: rho*w | rho*u*w | rho*v*w | rho*w^2 + p
momentum-z.status: printed
mass: rho | rho*u | rho*v | rho*w
mass.status: printed
mass.note: the constant-f instance of the f(p*rho^(-gamma)) family
entropy: p*rho^(-2/3) | u*p*rho^(-2/3) | v*p*rho^(-2/3) | w*p*rho^(-2/3)
entropy.status: derived
entropy.note: the instance f(p*rho^(-gamma)) = p*rho^(-5/3) of the advected-function family, multiplied through by rho
"""


@dataclass
class ModelEntry:
    """One built-in model: its parsed ModelFile and the regression settings
    (mixed-method generators, expected multiplier basis at degree 2)."""

    key: str
    title: str
    model: ModelFile
    regression_generators: tuple = ()
    multiplier_span: tuple = ()

    @property
    def system(self):
        return self.model.system

    @property
    def table(self):
        return self.model.table


# key -> (title, model text, regression generators, multiplier span);
# a model with no regression generators is checked by verification only
_TEXTS = {
    "kdv": ("Korteweg-de Vries equation", KDV_TEXT, ("X4",),
            ("1", "u", "x + t*u")),
    "fw": ("Fornberg-Whitham equation", FW_TEXT, ("X1",), ()),
    "sp": ("Short Pulse equation", SP_TEXT, ("X3",), ()),
    "gas1d": ("polytropic gas dynamics, one space dimension (gamma = 3)",
              GAS1D_TEXT, (), ()),
    "gas3d": ("polytropic gas dynamics, three space dimensions (gamma = 5/3)",
              GAS3D_TEXT, (), ()),
}

_cache = None


def builtin_models():
    """The built-in model entries, keyed by short name."""
    global _cache
    if _cache is not None:
        return _cache
    entries = {}
    for key, (title, text, generators, span) in _TEXTS.items():
        entries[key] = ModelEntry(key=key, title=title,
                                  model=parse_model_text(text, name=key),
                                  regression_generators=generators,
                                  multiplier_span=span)
    _cache = entries
    return entries


def get_model(name):
    models = builtin_models()
    if name not in models:
        raise KeyError(f"unknown model {name!r}; available: {sorted(models)}")
    return models[name]


# ---------------------------------------------------------------------------
# Regression harness
# ---------------------------------------------------------------------------

@dataclass
class RegressionItem:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class RegressionReport:
    model: str
    items: list = field(default_factory=list)

    @property
    def ok(self):
        return all(i.passed for i in self.items)

    def add(self, name, passed, detail=""):
        self.items.append(RegressionItem(name, passed, detail))


def regression_run(entry):
    """Symmetry checks, reference-law verification, and the default
    law-generation pipelines for one model entry; failures become report
    items, not exceptions."""
    report = RegressionReport(model=entry.key if entry else "")
    if entry is None:
        return report
    system = entry.system
    for label, g in entry.model.generators.items():
        residuals = symmetry_residual(g, system)
        ok = all(r.is_zero for r in residuals)
        report.add(f"symmetry {label}", ok,
                   "" if ok else "; ".join(str(r) for r in residuals))
    for law in entry.model.laws.values():
        r = verify(system, list(law.components))
        report.add(f"law {law.name} [{law.status}]", r.is_zero,
                   "" if r.is_zero else f"residual {r}")
    if entry.multiplier_span:
        table = entry.table
        basis = monomial_basis(table, 2,
                               gens=list(table.indep) +
                               [table.jet_by_alpha(a) for a in range(table.m)])
        _det, mults = solve_multipliers(
            system, [make_ansatz(basis, f"v{i}_")
                     for i in range(len(system.equations))])
        expected = [parse(s, table) for s in entry.multiplier_span]
        got = [m.v[0] for m in mults]
        ok = expr_span_equal(got, expected)
        report.add("multiplier span", ok,
                   f"basis {[str(g) for g in got]}")
    for label in entry.regression_generators:
        g = entry.model.generator(label)
        spaces = ansatz_spaces(entry.model)
        result = mixed_method(system, g, spaces["psi"], spaces["h"],
                              theta_ansatz=spaces["theta"])
        ok = len(result.laws) >= 1
        report.add(f"mixed {label}", ok,
                   f"{len(result.laws)} nontrivial / "
                   f"{result.solution_dimension} solutions")
    return report
