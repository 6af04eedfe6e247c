"""Command-line front end.

    clawforge models
    clawforge verify MODEL LAWS
    clawforge multipliers MODEL [--order L] [--degree D]
    clawforge mixed MODEL --generator SPEC [--psi-degree D] [--h-degree D] ...
    clawforge euler MODEL EXPR [--var NAME]
    clawforge tderiv MODEL VAR EXPR

MODEL is a built-in model name (see `models`) or a path to a model file.
Exit codes: 0 success, 1 semantic failure (a law fails verification, or a
required result is empty), 2 input error, 3 internal error (an unexpected
exception, reported on one line).  `--json` switches any report to a
machine-readable schema whose expression strings re-parse under the input
grammar."""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .calculus import SolvedFormError
from .expr import DomainError, NonlinearError
from .lawgen import (AnsatzError, mixed_method, make_ansatz, monomial_basis,
                     solve_multipliers, verify)
from .modelfile import (ModelFormatError, ansatz_spaces, load_laws,
                        load_model)
from .parse import ParseError, parse
from . import corpus

MAX_DEGREE_ENV = "CLAWFORGE_MAX_DEGREE"
DEFAULT_MAX_DEGREE = 8


class CliError(Exception):
    def __init__(self, message, code=2):
        super().__init__(message)
        self.code = code


def _max_degree():
    raw = os.environ.get(MAX_DEGREE_ENV)
    if raw is None:
        return DEFAULT_MAX_DEGREE
    try:
        return int(raw)
    except ValueError:
        raise CliError(f"{MAX_DEGREE_ENV} must be an integer, got {raw!r}")


def _check_degree(value, what):
    if value is None:
        return
    cap = _max_degree()
    if value < 0:
        raise CliError(f"{what} must be nonnegative")
    if value > cap:
        raise CliError(f"{what} {value} exceeds the cap {cap} "
                       f"(set {MAX_DEGREE_ENV} to raise it)")


def _resolve_model(spec):
    try:
        return corpus.get_model(spec).model
    except KeyError:
        pass
    if os.path.exists(spec):
        return load_model(spec)
    raise CliError(f"no built-in model or file named {spec!r}")


def _load_laws(spec, table):
    """Law entries from a built-in model, a model file, or a bare [laws]
    file, parsed against the verifying model's symbol table."""
    try:
        entry = corpus.get_model(spec)
        return dict(entry.model.laws)
    except KeyError:
        pass
    if not os.path.exists(spec):
        raise CliError(f"no built-in model or file named {spec!r}")
    try:
        return load_laws(spec, table)
    except ModelFormatError as exc:
        raise CliError(f"{spec}: {exc}")


def _parse_generator_spec(model, spec):
    """A generator label or a rational combination like 'X1+2*X3-1/2*X4'."""
    text = spec.replace(" ", "")
    if not text:
        raise CliError("empty generator spec")
    pieces = []
    sign = 1
    cur = ""
    for ch in text:
        if ch in "+-" and cur:
            pieces.append((sign, cur))
            sign = 1 if ch == "+" else -1
            cur = ""
        elif ch in "+-" and not cur and not pieces:
            sign = 1 if ch == "+" else -1
        else:
            cur += ch
    if cur:
        pieces.append((sign, cur))
    combined = None
    for sgn, piece in pieces:
        if "*" in piece:
            coef_text, label = piece.split("*", 1)
            try:
                coef = Fraction(coef_text)
            except ValueError:
                raise CliError(f"bad coefficient {coef_text!r} in generator spec")
        else:
            coef, label = Fraction(1), piece
        try:
            g = model.generator(label)
        except KeyError as exc:
            raise CliError(exc.args[0])
        g = g.scaled(sgn * coef)
        combined = g if combined is None else combined.plus(g, label=spec)
    combined = type(combined)(combined.xi, combined.eta, label=spec,
                              parametrized=combined.parametrized)
    return combined


def _emit(payload, as_json, human_lines):
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in human_lines:
            print(line)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_models(args):
    entries = corpus.builtin_models()
    payload = []
    lines = []
    for key, entry in entries.items():
        info = {
            "model": key,
            "title": entry.title,
            "independent": [v.name for v in entry.table.indep],
            "dependent": list(entry.table.dep_names),
            "generators": sorted(entry.model.generators),
            "laws": sorted(entry.model.laws),
        }
        payload.append(info)
        lines.append(f"{key}: {entry.title}")
        lines.append(f"  variables: ({', '.join(info['independent'])}) -> "
                     f"({', '.join(info['dependent'])})")
        lines.append(f"  generators: {', '.join(info['generators'])}")
        lines.append(f"  reference laws: {', '.join(info['laws'])}")
    _emit(payload, args.json, lines)
    return 0


def cmd_verify(args):
    model = _resolve_model(args.model)
    laws = _load_laws(args.laws, model.table)
    if not laws:
        raise CliError(f"{args.laws}: no laws to verify")
    payload = {"model": model.name, "laws": []}
    lines = []
    all_ok = True
    for law in laws.values():
        residual = verify(model.system, list(law.components))
        ok = residual.is_zero
        all_ok = all_ok and ok
        payload["laws"].append({
            "name": law.name,
            "status": law.status,
            "fluxes": [str(c) for c in law.components],
            "residual": str(residual),
            "verified": ok,
        })
        mark = "ok" if ok else "FAIL"
        lines.append(f"{law.name} [{law.status}]: {mark}")
        if not ok:
            lines.append(f"  residual: {residual}")
    lines.append(f"{'all laws verify' if all_ok else 'verification failed'}")
    _emit(payload, args.json, lines)
    return 0 if all_ok else 1


def cmd_multipliers(args):
    if args.order not in (0, 1):
        raise CliError("--order must be 0 or 1")
    _check_degree(args.degree, "--degree")
    model = _resolve_model(args.model)
    table = model.table
    basis = monomial_basis(table, args.degree, jet_order=args.order)
    ansatz = [make_ansatz(basis, f"v{i}_", set(table.params))
              for i in range(len(model.system.equations))]
    try:
        det, mults = solve_multipliers(model.system, ansatz)
    except AnsatzError as exc:
        raise CliError(str(exc))
    payload = {
        "model": model.name,
        "order": args.order,
        "degree": args.degree,
        "system_rows": det.shape[0],
        "system_cols": det.shape[1],
        "multipliers": [[str(v) for v in m.v] for m in mults],
    }
    lines = [f"determining system: {det.shape[0]} equations, "
             f"{det.shape[1]} unknowns",
             f"multiplier space dimension: {len(mults)}"]
    for i, m in enumerate(mults):
        lines.append(f"  psi[{i}]: " + " | ".join(str(v) for v in m.v))
    _emit(payload, args.json, lines)
    return 0


def cmd_mixed(args):
    for value, what in ((args.psi_degree, "--psi-degree"),
                        (args.h_degree, "--h-degree")):
        _check_degree(value, what)
    model = _resolve_model(args.model)
    g = _parse_generator_spec(model, args.generator)
    spaces = ansatz_spaces(model, psi_degree=args.psi_degree,
                           psi_jets=args.psi_jets, h_degree=args.h_degree,
                           h_jets=args.h_jets)
    try:
        result = mixed_method(model.system, g, spaces["psi"], spaces["h"],
                              theta_ansatz=spaces["theta"],
                              include_xi_l=args.include_xi_l)
    except AnsatzError as exc:
        raise CliError(str(exc))
    payload = {
        "model": model.name,
        "generator": args.generator,
        "solution_dimension": result.solution_dimension,
        "laws": [],
        "trivial_count": len(result.trivial),
    }
    lines = [f"generator {args.generator}: solution space dimension "
             f"{result.solution_dimension}, "
             f"{len(result.laws)} nontrivial law(s), "
             f"{len(result.trivial)} trivial"]
    for i, law in enumerate(result.laws):
        rec = {
            "model": model.name,
            "generator": law.generator,
            "psi": [str(p) for p in law.psi],
            "h": [str(h) for h in law.h],
            "h_is_zero": law.h_is_zero,
            "fluxes": [str(c) for c in law.display_components],
            "raw_fluxes": [str(c) for c in law.components],
            "residual": str(law.residual),
            "trivial_witness": None,
        }
        payload["laws"].append(rec)
        lines.append(f"law {i}:")
        for name, comp in zip(model.table.indep, law.display_components):
            lines.append(f"  T[{name.name}] = {comp}")
        lines.append("  psi: " + " | ".join(str(p) for p in law.psi))
        lines.append("  H:   " + " | ".join(str(h) for h in law.h) +
                     ("  (H = 0: pure symmetry route)" if law.h_is_zero else ""))
        lines.append(f"  residual: {law.residual}")
        if args.verbose and law.stripped is not None:
            for name, comp in zip(model.table.indep, law.components):
                lines.append(f"  raw T[{name.name}] = {comp}")
    if args.verbose:
        payload["trivial"] = []
        for law in result.trivial:
            payload["trivial"].append({
                "psi": [str(p) for p in law.psi],
                "h": [str(h) for h in law.h],
                "fluxes": [str(c) for c in law.components],
                "trivial_witness": (str(law.triviality.witness)
                                    if law.triviality.witness is not None
                                    else None),
                "kind": law.triviality.kind,
            })
            lines.append(f"trivial ({law.triviality.kind}): " +
                         " | ".join(str(c) for c in law.components))
    _emit(payload, args.json, lines)
    return 0


def cmd_euler(args):
    model = _resolve_model(args.model)
    table = model.table
    e = parse(args.expr, table)
    name = args.var or table.dep_names[0]
    if name not in table.dep_names:
        raise CliError(f"{name!r} is not a dependent variable of {model.name}")
    from .calculus import euler
    result = euler(e, table.dep_names.index(name), table)
    _emit({"model": model.name, "var": name, "expr": str(e),
           "result": str(result)}, args.json, [str(result)])
    return 0


def cmd_tderiv(args):
    model = _resolve_model(args.model)
    table = model.table
    e = parse(args.expr, table)
    try:
        v = table.indep_var(args.var)
    except KeyError:
        raise CliError(f"{args.var!r} is not an independent variable of "
                       f"{model.name}")
    from .calculus import total_derivative
    result = total_derivative(e, v)
    _emit({"model": model.name, "var": v.name, "expr": str(e),
           "result": str(result)}, args.json, [str(result)])
    return 0


def build_parser():
    ap = argparse.ArgumentParser(
        prog="clawforge",
        description="compute and verify local conservation laws of PDE "
                    "systems with exact rational arithmetic",
        epilog="exit codes: 0 success, 1 semantic failure (a law fails "
               "verification), 2 input error, 3 internal error")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("models", help="list built-in models")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_models)

    p = sub.add_parser("verify", help="verify candidate conservation laws")
    p.add_argument("model")
    p.add_argument("laws", help="laws source: built-in model name, model "
                                "file, or file with a [laws] section")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("multipliers",
                       help="solve the multiplier determining system")
    p.add_argument("model")
    p.add_argument("--order", type=int, default=0,
                   help="jet order of the multiplier ansatz (0 or 1)")
    p.add_argument("--degree", type=int, default=2,
                   help="total degree of the multiplier ansatz")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_multipliers)

    p = sub.add_parser("mixed", help="run the mixed determining pipeline")
    p.add_argument("model")
    p.add_argument("--generator", required=True,
                   help="label or combination, e.g. X1 or 'X1+2*X3'")
    p.add_argument("--psi-degree", type=int, default=None)
    p.add_argument("--psi-jets", type=int, default=None)
    p.add_argument("--h-degree", type=int, default=None)
    p.add_argument("--h-jets", type=int, default=None)
    p.add_argument("--include-xi-l", action="store_true",
                   help="keep the xi*L term in the symmetry flux")
    p.add_argument("--verbose", action="store_true",
                   help="also print the trivial laws that were stripped")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_mixed)

    p = sub.add_parser("euler", help="apply the variational derivative")
    p.add_argument("model")
    p.add_argument("expr")
    p.add_argument("--var", default=None, help="dependent variable name")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_euler)

    p = sub.add_parser("tderiv", help="apply a total derivative")
    p.add_argument("model")
    p.add_argument("var", help="independent variable name")
    p.add_argument("expr")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_tderiv)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (ParseError, ModelFormatError, SolvedFormError, NonlinearError,
            DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
