"""Model-file format shared by user input and the built-in model corpus.

A model file is line-oriented with bracketed sections; `#` starts a
comment.  Expressions use the grammar from the parse module.

    [model]
    name: kdv
    title: Korteweg-de Vries equation   # optional

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

Only the sections shown are read, and only the keys shown in [model] and
[vars]; any other section or key is an error.  A key, a generator label,
a law name or a law attribute given twice is an error too, and so is an
empty generator label or law name, or a [vars] name that is not an
identifier of the expression grammar.

Law components are separated by '|' in independent-variable order; a law
named N may carry attribute lines `N.status:` / `N.note:` / `N.source:`,
and any other attribute, or an attribute of an undefined law, is an error.
The same parser (`parse_laws`) reads the [laws] section of a laws file
or built-in model given to `verify`, with the same checks and line
numbers.  Generator coefficients hold no parameters.

The [ansatz] section holds default search-space settings: the nonnegative
integers psi_degree, psi_jets, h_degree, h_jets, theta_degree, theta_jets
and the comma-separated variable lists psi_vars, h_vars, theta_vars.  Any
other key, a negative integer, or a name in a list that is not a declared
independent or dependent variable, is an error.
"""

from __future__ import annotations

import os
from functools import cached_property

from .expr import ZERO, Jet, Param, SymbolTable
from .calculus import Equation, Generator, PdeSystem, SolvedFormError
from .lawgen import _jets, default_theta_ansatz, make_ansatz, monomial_basis
from .parse import ParseError, parse


class ModelFormatError(ValueError):
    def __init__(self, message, line=None):
        where = f" (line {line})" if line else ""
        super().__init__(f"{message}{where}")
        self.line = line


class LawEntry:
    def __init__(self, name, components, status="printed", note="",
                 source=""):
        self.name, self.components = name, components
        self.status, self.note, self.source = status, note, source


_ANSATZ_INT_KEYS = {
    "psi_degree", "psi_jets", "h_degree", "h_jets",
    "theta_degree", "theta_jets",
}
_ANSATZ_LIST_KEYS = {"psi_vars", "h_vars", "theta_vars"}
_SECTIONS = {"model", "vars", "equations", "generators", "laws", "ansatz"}


class ModelFile:
    """A parsed model; `laws` parses the [laws] lines on its first read."""

    def __init__(self, name, table, system, generators=None, law_lines=(),
                 ansatz=None, title=""):
        self.name, self.table, self.system = name, table, system
        self.generators = {} if generators is None else generators
        self.law_lines = law_lines
        self.ansatz = {} if ansatz is None else ansatz
        self.title = title

    @cached_property
    def laws(self):
        return parse_laws(self.law_lines, self.table)


def _split_sections(text):
    sections = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            if current not in _SECTIONS:
                raise ModelFormatError(f"unknown section {line!r}", lineno)
            sections.setdefault(current, [])
            continue
        if current is None:
            raise ModelFormatError(f"content before any section: {line!r}", lineno)
        sections[current].append((lineno, line))
    return sections


def _kv(lines, section, keys):
    """{key: (line number, value)} of a section whose keys are all in
    `keys`, each given once."""
    out = {}
    for lineno, line in lines:
        if ":" not in line:
            raise ModelFormatError(f"expected 'key: value' in [{section}]", lineno)
        key, value = line.split(":", 1)
        key = key.strip().lower()
        if key not in keys:
            raise ModelFormatError(f"unknown [{section}] key {key!r}", lineno)
        if key in out:
            raise ModelFormatError(f"duplicate [{section}] key {key!r}",
                                   lineno)
        out[key] = (lineno, value.strip())
    return out


def _names(value):
    return [n.strip() for n in value.split(",") if n.strip()]


def _is_identifier(name):
    """True if `name` reads as one identifier of the expression grammar
    (`parse._tokenize`): a letter or '_', then letters, digits or '_'."""
    return ((name[0].isalpha() or name[0] == "_")
            and all(c.isalnum() or c == "_" for c in name))


def parse_model_text(text, name="model"):
    """The model of a model text, its [laws] parsed and checked."""
    model = _model_from_text(text, name)
    model.laws    # parsed here, so that a bad law is an error at load
    return model


def _model_from_text(text, name="model"):
    """The model of a model text; its [laws] are parsed when first read."""
    sections = _split_sections(text)
    if "vars" not in sections:
        raise ModelFormatError("missing [vars] section")
    if "equations" not in sections:
        raise ModelFormatError("missing [equations] section")

    meta = _kv(sections.get("model", []), "model", {"name", "title"})
    meta = {key: value for key, (_, value) in meta.items()}
    name = meta.get("name", name)

    vars_kv = _kv(sections["vars"], "vars",
                  {"independent", "dependent", "parameters", "functions"})
    if "independent" not in vars_kv or "dependent" not in vars_kv:
        raise ModelFormatError("[vars] needs 'independent:' and 'dependent:'")
    declared, seen = {}, set()
    for key, (lineno, value) in vars_kv.items():    # in line order
        declared[key] = _names(value)
        for n in declared[key]:
            if not _is_identifier(n):
                raise ModelFormatError(
                    f"[vars] name {n!r} is not an identifier", lineno)
            if n in seen:
                raise ModelFormatError(f"duplicate [vars] name {n!r}", lineno)
            seen.add(n)
    table = SymbolTable(declared["independent"], declared["dependent"],
                        params=declared.get("parameters", ()),
                        funcs=declared.get("functions", ()))
    variables = set(declared["independent"]) | set(declared["dependent"])

    equations = []
    for lineno, line in sections["equations"]:
        if "=" not in line:
            raise ModelFormatError("equation must be 'lead = rhs'", lineno)
        lead, rhs = (_parse_at(side, table, lineno)
                     for side in line.split("=", 1))
        equations.append(Equation(_as_jet(lead, lineno), rhs))
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
        if not label:
            raise ModelFormatError("empty generator label", lineno)
        if label in generators:
            raise ModelFormatError(f"duplicate generator {label!r}", lineno)
        coefs = {}
        for piece in body.split(";"):
            piece = piece.strip()
            if not piece:
                continue
            if "=" not in piece:
                raise ModelFormatError(
                    f"generator coefficient must be 'var = expr': {piece!r}", lineno)
            var, coef = piece.split("=", 1)
            var = var.strip()
            ce = _parse_at(coef, table, lineno)
            if any(isinstance(a, Param) for a in ce.atoms()):
                raise ModelFormatError(f"coefficient {coef.strip()!r} of "
                                       f"generator {label} contains a "
                                       "parameter", lineno)
            if var not in variables:
                raise ModelFormatError(f"unknown variable {var!r} in generator "
                                       f"{label}", lineno)
            if var in coefs:
                raise ModelFormatError(f"duplicate coefficient {var!r} in "
                                       f"generator {label}", lineno)
            coefs[var] = ce
        generators[label] = Generator(
            tuple(coefs.get(v.name, ZERO) for v in table.indep),
            tuple(coefs.get(nm, ZERO) for nm in table.dep_names),
            label=label)

    ansatz = {}
    ansatz_kv = _kv(sections.get("ansatz", []), "ansatz",
                    _ANSATZ_INT_KEYS | _ANSATZ_LIST_KEYS)
    for key, (lineno, value) in ansatz_kv.items():
        if key in _ANSATZ_LIST_KEYS:
            ansatz[key] = _names(value)
            bad = [n for n in ansatz[key] if n not in variables]
            if bad:
                raise ModelFormatError(
                    f"unknown ansatz variable {bad[0]!r}", lineno)
            continue
        try:
            ansatz[key] = int(value)
        except ValueError:
            raise ModelFormatError(f"[ansatz] {key} must be an integer", lineno)
        if ansatz[key] < 0:
            raise ModelFormatError(f"[ansatz] {key} must be nonnegative",
                                   lineno)

    return ModelFile(name, table, system, generators,
                     sections.get("laws", []), ansatz, meta.get("title", ""))


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
        if not head:
            raise ModelFormatError("empty law name", lineno)
        if "." in head:
            attrs.append((lineno, head, body.strip()))
            continue
        comps = [_parse_at(piece, table, lineno) for piece in body.split("|")]
        if len(comps) != table.n:
            raise ModelFormatError(
                f"law {head!r} has {len(comps)} components; "
                f"expected {table.n}", lineno)
        if head in laws:
            raise ModelFormatError(f"duplicate law {head!r}", lineno)
        laws[head] = LawEntry(head, tuple(comps))
    seen = set()
    for lineno, head, value in attrs:
        lawname, attr = head.rsplit(".", 1)
        if lawname not in laws:
            raise ModelFormatError(f"attribute for unknown law {lawname!r}", lineno)
        if attr not in ("status", "note", "source"):
            raise ModelFormatError(f"unknown law attribute {attr!r}", lineno)
        if head in seen:
            raise ModelFormatError(f"duplicate law attribute {head!r}", lineno)
        seen.add(head)
        setattr(laws[lawname], attr, value)
    return laws


def _parse_at(text, table, lineno):
    """The expression of `text`, stripped; a parse error is a format error
    at `lineno`."""
    try:
        return parse(text.strip(), table)
    except ParseError as exc:
        raise ModelFormatError(str(exc), lineno)


def _as_jet(e, lineno):
    if len(e.terms) == 1:
        coeff, factors = e.terms[0]
        if coeff == 1 and len(factors) == 1:
            base, exp = factors[0]
            if isinstance(base, Jet) and exp == 1:
                return base
    raise ModelFormatError("left-hand side must be a single jet coordinate",
                           lineno)


def read_text(path):
    """A model or laws file's text; a file that cannot be read as UTF-8
    text is a format error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ModelFormatError(exc.strerror or str(exc))
    except UnicodeDecodeError as exc:
        raise ModelFormatError(
            f"not UTF-8 text: {exc.reason} at byte {exc.start}")


def load_model(path):
    default = os.path.splitext(os.path.basename(path))[0]
    return parse_model_text(read_text(path), name=default)


def laws_from_text(text, table):
    """The [laws] section of a model text or a bare laws text, parsed
    against `table`; the text's other sections are not read."""
    sections = _split_sections(text)
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
    gens = []
    indep_names = {v.name for v in table.indep}
    for name in names:
        if name in indep_names:
            gens.append(table.indep_var(name))
        elif name in table.dep_names:
            gens += [j for j in _jets(table, 0, jet_order) if j.name == name]
        else:
            raise ModelFormatError(f"unknown ansatz variable {name!r}")
    return gens


def ansatz_settings(model, **overrides):
    """The settings that `ansatz_spaces` uses, by key: each keyword
    override that is not None, else the model's [ansatz] value, else for
    a degree or jet order its default.  The theta settings are left out
    unless the model has two independent variables, the only case where
    the witness space is built."""
    cfg = {**_DEFAULTS, **model.ansatz,
           **{k: v for k, v in overrides.items() if v is not None}}
    return {k: v for k, v in cfg.items()
            if model.table.n == 2 or not k.startswith("theta_")}


def ansatz_spaces(model, **overrides):
    """Build the psi, H, and triviality-witness spaces for a model from its
    [ansatz] settings, with keyword overrides (psi_degree, psi_jets,
    psi_vars, h_degree, h_jets, h_vars, theta_degree, theta_jets,
    theta_vars)."""
    table = model.table
    cfg = ansatz_settings(model, **overrides)

    def basis_for(kind):
        degree = cfg[f"{kind}_degree"]
        jets = cfg[f"{kind}_jets"]
        names = cfg.get(f"{kind}_vars")
        gens = _gens_from_names(table, names, jets) if names else None
        return monomial_basis(table, degree, jet_order=jets, gens=gens)

    psi_basis = basis_for("psi")
    psi = [make_ansatz(psi_basis, f"p{alpha}_")
           for alpha in range(len(model.system.equations))]
    h_basis = basis_for("h")
    h = [make_ansatz(h_basis, f"h{i}_") for i in range(table.n)]
    theta = None
    if table.n == 2:
        names = cfg.get("theta_vars")
        gens = (_gens_from_names(table, names, 1) if names else None)
        theta = default_theta_ansatz(table, degree=cfg["theta_degree"],
                                     jet_order=cfg["theta_jets"],
                                     gens=gens)
    return {"psi": psi, "h": h, "theta": theta}
