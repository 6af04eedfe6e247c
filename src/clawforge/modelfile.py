"""Model-file format shared by user input and the built-in model corpus.

A model file is line-oriented with bracketed sections; `#` starts a
comment.  Expressions use the grammar from the parse module.

    [model]
    name: kdv

    [vars]
    independent: t, x
    dependent: u
    parameters: c0, c1        # optional
    functions: f              # optional

    [equations]
    u[t] = u[x,x,x] + u*u[x]  # solved form: leading jet = right-hand side

    [generators]
    X1: x = t; u = -1         # omitted coefficients are zero
    X2: t = 3*t; x = x; u = -2*u

    [laws]
    mass: u | -(u^2/2 + u[x,x])
    mass.status: sign-corrected
    mass.note: free-text annotation

    [ansatz]
    psi_degree: 1
    h_degree: 2

Law components are separated by '|' in independent-variable order; a law
named N may carry attribute lines `N.status:` / `N.note:` / `N.source:`,
and any other attribute, or an attribute of an undefined law, is an error.
The same parser (`parse_laws`) reads the [laws] section of a laws file
given to `verify`, with the same checks and line numbers.

The [ansatz] section holds default search-space settings: the integers
psi_degree, psi_jets, h_degree, h_jets, theta_degree, theta_jets and the
comma-separated variable lists psi_vars, h_vars, theta_vars.  Any other
key is an error.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .expr import SymbolTable
from .calculus import Equation, Generator, PdeSystem, SolvedFormError
from .parse import ParseError, parse


class ModelFormatError(ValueError):
    def __init__(self, message, line=None):
        where = f" (line {line})" if line else ""
        super().__init__(f"{message}{where}")
        self.line = line


@dataclass
class LawEntry:
    name: str
    components: tuple
    status: str = "printed"
    note: str = ""
    source: str = ""


_ANSATZ_INT_KEYS = {
    "psi_degree", "psi_jets", "h_degree", "h_jets",
    "theta_degree", "theta_jets",
}
_ANSATZ_LIST_KEYS = {"psi_vars", "h_vars", "theta_vars"}


@dataclass
class ModelFile:
    name: str
    table: SymbolTable
    system: PdeSystem
    generators: dict = field(default_factory=dict)
    laws: dict = field(default_factory=dict)
    ansatz: dict = field(default_factory=dict)

    def generator(self, label):
        if label not in self.generators:
            raise KeyError(f"unknown generator {label!r}; "
                           f"have {sorted(self.generators)}")
        return self.generators[label]


def _split_sections(text):
    sections = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            sections.setdefault(current, [])
            continue
        if current is None:
            raise ModelFormatError(f"content before any section: {line!r}", lineno)
        sections[current].append((lineno, line))
    return sections


def _kv(lines, section):
    out = {}
    for lineno, line in lines:
        if ":" not in line:
            raise ModelFormatError(f"expected 'key: value' in [{section}]", lineno)
        key, value = line.split(":", 1)
        out[key.strip().lower()] = (lineno, value.strip())
    return out


def _names(value):
    return [n.strip() for n in value.split(",") if n.strip()]


def parse_model_text(text, name="model"):
    sections = _split_sections(text)
    if "vars" not in sections:
        raise ModelFormatError("missing [vars] section")
    if "equations" not in sections:
        raise ModelFormatError("missing [equations] section")

    meta = _kv(sections.get("model", []), "model")
    if "name" in meta:
        name = meta["name"][1]

    vars_kv = _kv(sections["vars"], "vars")
    if "independent" not in vars_kv or "dependent" not in vars_kv:
        raise ModelFormatError("[vars] needs 'independent:' and 'dependent:'")
    table = SymbolTable(
        _names(vars_kv["independent"][1]),
        _names(vars_kv["dependent"][1]),
        params=_names(vars_kv["parameters"][1]) if "parameters" in vars_kv else (),
        funcs=_names(vars_kv["functions"][1]) if "functions" in vars_kv else (),
    )

    equations = []
    for lineno, line in sections["equations"]:
        if "=" not in line:
            raise ModelFormatError("equation must be 'lead = rhs'", lineno)
        lhs, rhs = line.split("=", 1)
        try:
            lead_expr = parse(lhs.strip(), table)
            rhs_expr = parse(rhs.strip(), table)
        except ParseError as exc:
            raise ModelFormatError(str(exc), lineno)
        lead = _as_jet(lead_expr, lineno)
        equations.append(Equation(lead, rhs_expr))
    try:
        system = PdeSystem(name, table, equations)
    except SolvedFormError as exc:
        raise ModelFormatError(str(exc))

    generators = {}
    for lineno, line in sections.get("generators", []):
        if ":" not in line:
            raise ModelFormatError("generator must be 'LABEL: var = expr; ...'",
                                   lineno)
        label, body = line.split(":", 1)
        label = label.strip()
        xi = {v.name: None for v in table.indep}
        eta = {nm: None for nm in table.dep_names}
        for piece in body.split(";"):
            piece = piece.strip()
            if not piece:
                continue
            if "=" not in piece:
                raise ModelFormatError(
                    f"generator coefficient must be 'var = expr': {piece!r}", lineno)
            var, coef = piece.split("=", 1)
            var = var.strip()
            try:
                ce = parse(coef.strip(), table)
            except ParseError as exc:
                raise ModelFormatError(str(exc), lineno)
            if var in xi:
                xi[var] = ce
            elif var in eta:
                eta[var] = ce
            else:
                raise ModelFormatError(f"unknown variable {var!r} in generator "
                                       f"{label}", lineno)
        zero = parse("0", table)
        generators[label] = Generator(
            tuple(xi[v.name] if xi[v.name] is not None else zero
                  for v in table.indep),
            tuple(eta[nm] if eta[nm] is not None else zero
                  for nm in table.dep_names),
            label=label)

    laws = parse_laws(sections.get("laws", []), table)

    ansatz = {}
    for key, (lineno, value) in _kv(sections.get("ansatz", []), "ansatz").items():
        if key in _ANSATZ_INT_KEYS:
            try:
                ansatz[key] = int(value)
            except ValueError:
                raise ModelFormatError(f"[ansatz] {key} must be an integer", lineno)
        elif key in _ANSATZ_LIST_KEYS:
            ansatz[key] = _names(value)
        else:
            raise ModelFormatError(f"unknown [ansatz] key {key!r}", lineno)

    return ModelFile(name=name, table=table, system=system,
                     generators=generators, laws=laws, ansatz=ansatz)


def parse_laws(lines, table):
    """Law entries from the (line number, line) pairs of a [laws] section,
    parsed against `table`."""
    laws = {}
    attrs = []
    for lineno, line in lines:
        if ":" not in line:
            raise ModelFormatError("law must be 'name: T1 | T2 | ...'", lineno)
        head, body = line.split(":", 1)
        head = head.strip()
        if "." in head:
            attrs.append((lineno, head, body.strip()))
            continue
        comps = []
        for piece in body.split("|"):
            try:
                comps.append(parse(piece.strip(), table))
            except ParseError as exc:
                raise ModelFormatError(str(exc), lineno)
        if len(comps) != table.n:
            raise ModelFormatError(
                f"law {head!r} has {len(comps)} components; "
                f"expected {table.n}", lineno)
        laws[head] = LawEntry(head, tuple(comps))
    for lineno, head, value in attrs:
        lawname, attr = head.rsplit(".", 1)
        if lawname not in laws:
            raise ModelFormatError(f"attribute for unknown law {lawname!r}", lineno)
        if attr not in ("status", "note", "source"):
            raise ModelFormatError(f"unknown law attribute {attr!r}", lineno)
        setattr(laws[lawname], attr, value)
    return laws


def _as_jet(e, lineno):
    from .expr import Jet
    if len(e.terms) == 1:
        coeff, factors = e.terms[0]
        if coeff == 1 and len(factors) == 1:
            base, exp = factors[0]
            if isinstance(base, Jet) and exp == 1:
                return base
    raise ModelFormatError("left-hand side must be a single jet coordinate",
                           lineno)


def load_model(path):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    import os
    default = os.path.splitext(os.path.basename(path))[0]
    return parse_model_text(text, name=default)


def load_laws(path, table):
    """The [laws] section of a model file or a bare laws file, parsed
    against `table`; the file's other sections are not read."""
    with open(path, "r", encoding="utf-8") as fh:
        sections = _split_sections(fh.read())
    if "laws" not in sections:
        raise ModelFormatError("no [laws] section")
    return parse_laws(sections["laws"], table)


# ---------------------------------------------------------------------------
# Search-space construction from [ansatz] settings
# ---------------------------------------------------------------------------

_DEFAULTS = {
    "psi_degree": 2, "psi_jets": 0,
    "h_degree": 2, "h_jets": 0,
    "theta_degree": 3, "theta_jets": 2,
}


def _gens_from_names(table, names, jet_order):
    import itertools
    gens = []
    indep_names = {v.name for v in table.indep}
    for name in names:
        if name in indep_names:
            gens.append(table.indep_var(name))
        elif name in table.dep_names:
            alpha = table.dep_names.index(name)
            gens.append(table.jet_by_alpha(alpha))
            for k in range(1, jet_order + 1):
                for combo in itertools.combinations_with_replacement(
                        table.indep, k):
                    gens.append(table.jet_by_alpha(alpha, combo))
        else:
            raise ModelFormatError(f"unknown ansatz variable {name!r}")
    return gens


def ansatz_spaces(model, **overrides):
    """Build the psi, H, and triviality-witness spaces for a model from its
    [ansatz] settings, with keyword overrides (psi_degree, psi_jets,
    psi_vars, h_degree, h_jets, h_vars, theta_degree, theta_jets,
    theta_vars)."""
    from .lawgen import default_theta_ansatz, make_ansatz, monomial_basis

    table = model.table
    cfg = dict(model.ansatz)
    cfg.update({k: v for k, v in overrides.items() if v is not None})

    def setting(key):
        return cfg.get(key, _DEFAULTS.get(key))

    forbidden = set(table.params)

    def basis_for(kind):
        degree = setting(f"{kind}_degree")
        jets = setting(f"{kind}_jets")
        names = cfg.get(f"{kind}_vars")
        gens = _gens_from_names(table, names, jets) if names else None
        return monomial_basis(table, degree, jet_order=jets, gens=gens)

    psi_basis = basis_for("psi")
    psi = [make_ansatz(psi_basis, f"p{alpha}_", forbidden)
           for alpha in range(len(model.system.equations))]
    h_basis = basis_for("h")
    h = [make_ansatz(h_basis, f"h{i}_", forbidden) for i in range(table.n)]
    theta = None
    if table.n == 2:
        names = cfg.get("theta_vars")
        gens = (_gens_from_names(table, names, 1) if names else None)
        theta = default_theta_ansatz(table, degree=setting("theta_degree"),
                                     jet_order=setting("theta_jets"),
                                     gens=gens, forbidden=forbidden)
    return {"psi": psi, "h": h, "theta": theta}
