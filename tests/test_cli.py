import ast
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import clawforge
from clawforge.cli import main
from clawforge.corpus import get_model
from clawforge.lawgen import AnsatzError
from clawforge.parse import MAX_DEPTH, parse


CORRECTED_KDV_LAWS = """
[laws]
density-u: u | -(u^2/2 + u[x,x])
density-u2: u^2 | u[x]^2 - 2*u*u[x,x] - 2/3*u^3
"""

SP_RADICAL_LAW = """
[laws]
radical: (1 + u[x]^2)^(1/2) | -u^2/2*(1 + u[x]^2)^(1/2)
"""

BOGUS_LAW = """
[laws]
bogus: u | u
"""


def test_models_lists_five_entries(capsys):
    assert main(["models"]) == 0
    out = capsys.readouterr().out
    for name in ("kdv", "fw", "sp", "gas1d", "gas3d"):
        assert name in out


def test_models_json(capsys):
    assert main(["models", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload) == 5
    assert {e["model"] for e in payload} == {"kdv", "fw", "sp", "gas1d",
                                             "gas3d"}


def test_verify_corrected_kdv_laws(tmp_path, capsys):
    laws = tmp_path / "kdv.laws"
    laws.write_text(CORRECTED_KDV_LAWS)
    assert main(["verify", "kdv", str(laws)]) == 0
    assert "all laws verify" in capsys.readouterr().out


def test_verify_sp_radical_law(tmp_path, capsys):
    laws = tmp_path / "sp.laws"
    laws.write_text(SP_RADICAL_LAW)
    assert main(["verify", "sp", str(laws)]) == 0


def test_verify_bogus_law_fails(tmp_path, capsys):
    laws = tmp_path / "bogus.laws"
    laws.write_text(BOGUS_LAW)
    assert main(["verify", "kdv", str(laws)]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "residual" in out


def test_verify_json_reparses(tmp_path, capsys):
    laws = tmp_path / "kdv.laws"
    laws.write_text(CORRECTED_KDV_LAWS)
    assert main(["verify", "kdv", str(laws), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    table = get_model("kdv").table
    assert payload["model"] == "kdv"
    for law in payload["laws"]:
        assert law["verified"] is True
        parse(law["residual"], table)
        for comp in law["fluxes"]:
            parse(comp, table)


def test_verify_builtin_laws_source(capsys):
    # a built-in's laws are parsed against the verifying model's table, so
    # gas1d's laws name a variable kdv does not have
    for model, laws, code in (("kdv", "kdv", 0), ("fw", "kdv", 1),
                              ("gas1d", "kdv", 1), ("kdv", "gas1d", 2)):
        assert main(["verify", model, laws]) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: gas1d: ") and "'rho'" in err[0]


def test_multipliers_kdv(capsys):
    assert main(["multipliers", "kdv", "--order", "0", "--degree", "2"]) == 0
    out = capsys.readouterr().out
    assert "dimension: 3" in out


def test_multipliers_json_reparses(capsys):
    assert main(["multipliers", "kdv", "--degree", "2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    table = get_model("kdv").table
    assert len(payload["multipliers"]) == 3
    for m in payload["multipliers"]:
        for v in m:
            parse(v, table)


def test_multipliers_bad_order(capsys):
    assert main(["multipliers", "kdv", "--order", "3"]) == 2


def test_mixed_kdv_x4(capsys):
    assert main(["mixed", "kdv", "--generator", "X4", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    table = get_model("kdv").table
    assert payload["laws"], "expected at least one nontrivial law"
    for law in payload["laws"]:
        assert law["residual"] == "0"
        for key in ("psi", "h", "fluxes"):
            for s in law[key]:
                parse(s, table)


def test_mixed_generator_combination(capsys):
    assert main(["mixed", "kdv", "--generator", "X3+X4", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["generator"] == "X3+X4"


def test_mixed_unknown_generator(capsys):
    assert main(["mixed", "kdv", "--generator", "X9"]) == 2
    assert capsys.readouterr().err == (
        "error: bad generator spec 'X9': undeclared identifier 'X9' "
        "(at position 0); have ['X1', 'X2', 'X3', 'X4']\n")


def test_mixed_generator_spec_without_label(capsys):
    have = "; have ['X1', 'X2', 'X3', 'X4']"
    for spec, message in (
            ("+", "unexpected token end of input (at position 1)" + have),
            ("-", "unexpected token end of input (at position 1)" + have),
            ("1/0*X1", "division by zero (at position 2)" + have)):
        assert main(["mixed", "kdv", "--generator", spec]) == 2
        assert capsys.readouterr().err == \
            f"error: bad generator spec {spec!r}: {message}\n"
    # a zero multiple is zero, not a generator
    assert main(["mixed", "kdv", "--generator", "0*X1"]) == 2
    assert capsys.readouterr().err == \
        "error: generator spec '0*X1' is zero\n"


@pytest.mark.parametrize("spec", ["1.5*X4", "1e1*X4", "1_0*X4", "X4.5"])
def test_mixed_generator_spec_refuses_decimals(capsys, spec):
    # the spec is read by the expression grammar, which has no decimals
    assert main(["mixed", "kdv", "--generator", spec]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: bad generator spec {spec!r}: ")


@pytest.mark.parametrize("spec", ["1+X1", "X1*X2", "X1^2", "2^(1/2)*X1",
                                  "(X1+X2)^(-1)", "X1-X1"])
def test_mixed_generator_spec_must_be_linear_in_labels(capsys, spec):
    assert main(["mixed", "kdv", "--generator", spec]) == 2
    if spec == "X1-X1":
        # linear in the labels, but it cancels: zero, not a generator
        reason = "is zero"
    else:
        reason = ("is not a rational combination "
                  "of the labels ['X1', 'X2', 'X3', 'X4']")
    assert capsys.readouterr().err == \
        f"error: generator spec {spec!r} {reason}\n"


@pytest.mark.parametrize("spec,same", [("X4/2", "1/2*X4"),
                                       ("2*(X1+X4)", "2*X1+2*X4")])
def test_mixed_generator_spec_grammar(capsys, spec, same):
    def laws(s):
        assert main(["mixed", "kdv", "--generator", s, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload.pop("generator") == s
        for law in payload["laws"]:
            assert law.pop("generator") == s
        return payload

    got = laws(spec)
    assert got["laws"] and got == laws(same)


def test_mixed_generator_label_is_matched_whole(tmp_path, capsys):
    # a label that the grammar cannot read still names its generator
    model = tmp_path / "heat.model"
    model.write_text("[vars]\nindependent: t, x\ndependent: u\n"
                     "[equations]\nu[t] = u[x,x]\n"
                     "[generators]\nX-1: x = 1\nshift t: t = 1\n")
    for spec in ("X-1", "shift t"):
        assert main(["mixed", str(model), "--generator", spec,
                     "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["generator"] == spec
    assert main(["mixed", str(model), "--generator", "X"]) == 2
    assert capsys.readouterr().err == (
        "error: bad generator spec 'X': undeclared identifier 'X' "
        "(at position 0); have ['X-1', 'shift t']\n")


def test_mixed_jet_orders_checked(monkeypatch, capsys):
    monkeypatch.delenv("CLAWFORGE_MAX_DEGREE", raising=False)
    assert main(["mixed", "kdv", "--generator", "X4", "--psi-jets", "-1"]) == 2
    assert capsys.readouterr().err == "error: --psi-jets must be nonnegative\n"
    assert main(["mixed", "kdv", "--generator", "X4", "--h-jets", "99"]) == 2
    assert capsys.readouterr().err == (
        "error: --h-jets 99 exceeds the cap 8 "
        "(set CLAWFORGE_MAX_DEGREE to raise it)\n")
    monkeypatch.setenv("CLAWFORGE_MAX_DEGREE", "1")
    assert main(["mixed", "kdv", "--generator", "X4", "--h-jets", "2"]) == 2
    assert "--h-jets 2 exceeds the cap 1" in capsys.readouterr().err


def test_model_ansatz_held_to_the_degree_cap(monkeypatch, tmp_path, capsys):
    # a model's [ansatz] setting is checked like the flag that overrides it
    monkeypatch.delenv("CLAWFORGE_MAX_DEGREE", raising=False)
    model = tmp_path / "kdv9.model"
    model.write_text("[vars]\nindependent: t, x\ndependent: u\n"
                     "[equations]\nu[t] = u[x,x,x] + u*u[x]\n"
                     "[generators]\nX1: x = 1\n"
                     "[ansatz]\npsi_degree: 9\nh_degree: 0\n")
    for extra in ([], ["--h-degree", "1"]):
        assert main(["mixed", str(model), "--generator", "X1", *extra]) == 2
        assert capsys.readouterr().err == (
            "error: [ansatz] psi_degree 9 exceeds the cap 8 "
            "(set CLAWFORGE_MAX_DEGREE to raise it)\n")
    assert main(["mixed", str(model), "--generator", "X1",
                 "--psi-degree", "9"]) == 2
    assert capsys.readouterr().err.startswith("error: --psi-degree 9 exceeds")
    # a flag overrides the setting, which then is not the effective one
    assert main(["mixed", str(model), "--generator", "X1",
                 "--psi-degree", "1"]) == 0
    capsys.readouterr()
    monkeypatch.setenv("CLAWFORGE_MAX_DEGREE", "9")
    text = model.read_text().replace("psi_degree: 9", "theta_jets: 10")
    model.write_text(text)
    assert main(["mixed", str(model), "--generator", "X1"]) == 2
    assert capsys.readouterr().err == (
        "error: [ansatz] theta_jets 10 exceeds the cap 9 "
        "(set CLAWFORGE_MAX_DEGREE to raise it)\n")
    # a default that neither a flag nor the model gives is held too
    model.write_text(text.split("[ansatz]")[0])
    monkeypatch.setenv("CLAWFORGE_MAX_DEGREE", "1")
    for flags, key, value in ([[], "psi_degree", 2],
                              [["--psi-degree", "1", "--h-degree", "1"],
                               "theta_degree", 3]):
        assert main(["mixed", str(model), "--generator", "X1", *flags]) == 2
        assert capsys.readouterr().err == (
            f"error: default {key} {value} exceeds the cap 1 "
            "(set CLAWFORGE_MAX_DEGREE to raise it)\n")
    assert main(["mixed", str(model), "--generator", "X1",
                 "--psi-degree", "2"]) == 2
    assert capsys.readouterr().err.startswith("error: --psi-degree 2 exceeds")


def test_empty_law_name_is_an_input_error(tmp_path, capsys):
    laws = tmp_path / "laws.txt"
    laws.write_text("[laws]\n: u | -(u^2/2 + u[x,x])\n")
    assert main(["verify", "kdv", str(laws)]) == 2
    assert capsys.readouterr().err == \
        f"error: {laws}: empty law name (line 2)\n"


def test_mixed_unknown_model(capsys):
    assert main(["mixed", "nope", "--generator", "X1"]) == 2


def test_mixed_degree_cap(monkeypatch, capsys):
    monkeypatch.setenv("CLAWFORGE_MAX_DEGREE", "3")
    assert main(["mixed", "kdv", "--generator", "X4", "--h-degree", "5"]) == 2
    assert "exceeds the cap" in capsys.readouterr().err


def test_euler_example(capsys):
    assert main(["euler", "kdv", "u[x]^2/2"]) == 0
    assert capsys.readouterr().out.strip() == "-u[x,x]"


def test_tderiv_example(capsys):
    assert main(["tderiv", "kdv", "x", "u[x,x]+u^2/2"]) == 0
    out = capsys.readouterr().out.strip()
    table = get_model("kdv").table
    assert parse(out, table) == parse("u[x,x,x]+u*u[x]", table)


def test_multipliers_fw_degree_one(capsys):
    # t and x fail the multiplier identity for this equation (the residuals
    # are -1 and -(u+1)), so the degree-1 space is the constants only
    assert main(["multipliers", "fw", "--order", "0", "--degree", "1"]) == 0
    out = capsys.readouterr().out
    assert "dimension: 1" in out


def test_multipliers_empty_space(tmp_path, capsys):
    model = tmp_path / "fisher.model"
    model.write_text("""
[vars]
independent: t, x
dependent: u

[equations]
u[t] = u[x,x] + u^2
""")
    assert main(["multipliers", str(model), "--degree", "0"]) == 0
    assert "dimension: 0" in capsys.readouterr().out


def test_mixed_fw_default_run(capsys):
    assert main(["mixed", "fw", "--generator", "X1", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["laws"]) >= 2


def test_mixed_sp_default_run(capsys):
    assert main(["mixed", "sp", "--generator", "X3", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["laws"]) >= 1
    table = get_model("sp").table
    for law in payload["laws"]:
        assert law["residual"] == "0"
        for s in law["fluxes"]:
            parse(s, table)


def test_cross_process_output_deterministic():
    import os
    import subprocess
    import sys
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src")
    cmd = [sys.executable, "-m", "clawforge.cli", "mixed", "kdv",
           "--generator", "X4", "--json"]
    runs = []
    for seed in ("0", "42"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        out = subprocess.run(cmd, capture_output=True, text=True, env=env)
        assert out.returncode == 0, out.stderr
        runs.append(out.stdout)
    assert runs[0] == runs[1]


def test_euler_and_tderiv_json_reparse(capsys):
    table = get_model("kdv").table
    assert main(["euler", "kdv", "u[x]^2/2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["var"] == "u"
    assert parse(payload["expr"], table) == parse("u[x]^2/2", table)
    assert parse(payload["result"], table) == parse("-u[x,x]", table)
    assert main(["tderiv", "kdv", "x", "u[x,x]+u^2/2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["var"] == "x"
    assert parse(payload["result"], table) == \
        parse("u[x,x,x]+u*u[x]", table)


def test_tderiv_root_beyond_float_range(capsys):
    assert main(["tderiv", "kdv", "x", "(10^400)^(1/2)"]) == 0
    assert capsys.readouterr().out.strip() == "0"


def test_internal_error_exit_code(monkeypatch, capsys):
    import clawforge.cli as cli

    def boom(args):
        raise RuntimeError("unexpected")

    monkeypatch.setattr(cli, "cmd_models", boom)
    assert main(["models"]) == 3
    err = capsys.readouterr().err
    assert err == "error: internal error: RuntimeError: unexpected\n"


@pytest.mark.parametrize("command,argv", [
    ("solve_multipliers", ["multipliers", "kdv"]),
    ("mixed_method", ["mixed", "kdv", "--generator", "X4"]),
], ids=["multipliers", "mixed"])
def test_ansatz_error_is_an_input_error(monkeypatch, capsys, command, argv):
    import clawforge.cli as cli

    def refuse(*args, **kwargs):
        raise AnsatzError("psi ansatz must be polynomial in jets and "
                          "variables; got u^(1/2)")

    monkeypatch.setattr(cli, command, refuse)
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: psi ansatz must be polynomial in jets and variables; "
        "got u^(1/2)\n")


def test_parser_built_once(capsys):
    from clawforge.cli import build_parser
    assert build_parser() is build_parser()
    assert main(["models"]) == 0 and main(["models", "--json"]) == 0
    assert build_parser() is build_parser()


def test_help_lists_exit_codes(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    assert "3 internal error" in " ".join(capsys.readouterr().out.split())


def test_parse_error_exit_code(capsys):
    assert main(["euler", "kdv", "u[x"]) == 2


@pytest.mark.parametrize("expr,message", [
    ("²*u", "unexpected character '²' (at position 0)"),
    ("u + 1/0", "division by zero (at position 6)"),
    ("u/(x - x)", "division by zero (at position 2)"),
    ("(x - x)^(-1)", "zero raised to a negative power (at position 0)"),
])
def test_undefined_input_is_a_positioned_input_error(capsys, expr, message):
    # a digit that int() refuses, and a zero divisor, are grammar errors
    # with a position, not internal errors
    assert main(["euler", "kdv", expr]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


FUNCTION_MODEL = """
[vars]
independent: t, x
dependent: u
functions: f

[equations]
u[t] = u*u[x]
"""


@pytest.mark.parametrize("opener", ["(", "f("],
                         ids=["parentheses", "function-arguments"])
@pytest.mark.parametrize("depth", [MAX_DEPTH, MAX_DEPTH + 1, 1000])
def test_nesting_past_the_limit_is_an_input_error(tmp_path, capsys, opener,
                                                   depth):
    # deeper nesting would run the parser, or the derivative of nested
    # function symbols, out of stack: an internal error, not an input error
    model = tmp_path / "f.model"
    model.write_text(FUNCTION_MODEL)
    expr = opener * depth + "u" + ")" * depth
    rc = main(["tderiv", str(model), "x", expr])
    captured = capsys.readouterr()
    if depth <= MAX_DEPTH:
        assert rc == 0 and captured.err == ""
        return
    pos = len(opener) * (MAX_DEPTH + 1) - 1     # the first '(' too deep
    assert rc == 2
    assert captured.err == (f"error: nesting deeper than {MAX_DEPTH} levels "
                            f"(at position {pos})\n")


def test_name_declared_twice_is_an_input_error(tmp_path, capsys):
    model = tmp_path / "twice.model"
    model.write_text(FUNCTION_MODEL.replace("functions: f", "functions: u"))
    assert main(["tderiv", str(model), "x", "u"]) == 2
    assert capsys.readouterr().err == \
        f"error: {model}: duplicate [vars] name 'u' (line 5)\n"


@pytest.mark.parametrize("job", ["mixed kdv --generator X4",
                                 "mixed gas1d --generator X0 --psi-degree 1"])
def test_include_xi_l_changes_only_the_unreduced_fluxes(capsys, job):
    # xi^i L vanishes on solutions, so keeping it in the symmetry flux moves
    # only what is printed before reduction: each law's raw fluxes and the
    # fluxes of each trivial law
    def run(*flags):
        assert main(job.split() + ["--verbose", "--json", *flags]) == 0
        return json.loads(capsys.readouterr().out)

    plain, with_l = run(), run("--include-xi-l")
    assert plain["laws"] and plain["trivial"]
    for key, kind in (("raw_fluxes", "laws"), ("fluxes", "trivial")):
        assert ([law[key] for law in plain[kind]] !=
                [law[key] for law in with_l[kind]])
        for payload in (plain, with_l):
            for law in payload[kind]:
                del law[key]
    assert plain == with_l


def test_verify_missing_laws_file(capsys):
    assert main(["verify", "kdv", "/no/such/file.laws"]) == 2


@pytest.mark.parametrize("line,message", [
    ("density-u.colour: red", "unknown law attribute 'colour'"),
    ("ghost.status: printed", "attribute for unknown law 'ghost'"),
    ("broken: u | u[x", "expected ']', found end of input (at position 3)"),
    ("[generator]", "unknown section '[generator]'"),
], ids=["unknown-attribute", "undefined-law", "bad-expression",
        "unknown-section"])
def test_verify_rejects_bad_laws_file(tmp_path, capsys, line, message):
    laws = tmp_path / "bad.laws"
    laws.write_text(CORRECTED_KDV_LAWS + line + "\n")
    assert main(["verify", "kdv", str(laws)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {laws}: {message} (line 5)\n"


def test_verify_duplicate_law_is_not_dropped(tmp_path, capsys):
    # the failing first 'mass' must not be replaced by the verifying second
    laws = tmp_path / "gas.laws"
    laws.write_text("[laws]\nmass: rho^2 | rho*u\nmass: rho | rho*u\n")
    assert main(["verify", "gas1d", str(laws)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {laws}: duplicate law 'mass' (line 3)\n"


def test_user_model_file(tmp_path, capsys):
    burgers = tmp_path / "burgers.model"
    burgers.write_text("""
[vars]
independent: t, x
dependent: u

[equations]
u[t] = u[x,x] + u*u[x]

[generators]
X1: t = 1
X2: x = 1

[laws]
mass: u | -(u^2/2 + u[x])
""")
    # fourth order: the symmetry flux has no cap on the order of L
    heat4 = tmp_path / "heat4.model"
    heat4.write_text("[vars]\nindependent: t, x\ndependent: u\n"
                     "[equations]\nu[t] = u[x,x,x,x]\n"
                     "[generators]\nX1: x = 1\n"
                     "[laws]\nmass: u | -u[x,x,x]\n")
    for model, mixed_args in ((burgers, ["X2", "--psi-degree", "1"]),
                              (heat4, ["X1"])):
        assert main(["verify", str(model), str(model)]) == 0
        assert main(["mixed", str(model), "--generator"] + mixed_args) == 0
    assert "T[x] = -u[x,x,x]\n" in capsys.readouterr().out


@pytest.mark.parametrize("argv,bad", [
    (["verify", "kdv", "{dir}"], "{dir}"),
    (["mixed", "{dir}", "--generator", "X1"], "{dir}"),
    (["verify", "kdv", "{laws}"], "{laws}"),
    (["verify", "{model}", "kdv"], "{model}"),
], ids=["laws-directory", "model-directory", "non-utf8-laws",
        "non-utf8-model"])
def test_unreadable_input_file(tmp_path, capsys, argv, bad):
    paths = {"dir": tmp_path / "somedir", "laws": tmp_path / "bad.laws",
             "model": tmp_path / "bad.model"}
    paths["dir"].mkdir()
    paths["laws"].write_bytes(b"[laws]\nmass: u\xff | u\n")
    paths["model"].write_bytes(b"[vars]\nindependent: t, x\xff\n")
    names = {k: str(v) for k, v in paths.items()}
    assert main([a.format(**names) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: {bad.format(**names)}: ")
    assert "internal error" not in lines[0]


def test_python_dash_m_runs_the_cli():
    src = Path(clawforge.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "clawforge", "models"],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "kdv" in proc.stdout


@pytest.mark.parametrize("argv", [
    ["models"],
    ["mixed", "gas3d", "--generator", "X1"],
], ids=["short-output", "long-output"])
def test_closed_stdout_exits_141_quietly(argv):
    # the reader closes its end of the pipe before the program writes, as
    # `clawforge ... | head -1` does once it has its line; stdout is block
    # buffered, as in a plain shell pipe, so a short report is still in the
    # buffer when the command returns
    src = Path(clawforge.__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(src)
    proc = subprocess.Popen([sys.executable, "-m", "clawforge", *argv],
                            env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 141
    assert err == b""


def test_help_lists_closed_pipe_exit_code(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    assert "141 standard output closed" in " ".join(
        capsys.readouterr().out.split())


THREE_VARIABLE_MODEL = """
[vars]
independent: t, x, y
dependent: u

[equations]
u[t] = u[x] + u[y]

[generators]
X1: t = 1

[ansatz]
psi_degree: 1
h_degree: 1
"""


def test_mixed_says_curl_triviality_needs_two_variables(tmp_path, capsys):
    model = tmp_path / "advection2.model"
    model.write_text(THREE_VARIABLE_MODEL)
    argv = ["mixed", str(model), "--generator", "X1"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == ("curl triviality is tested only for two independent "
                        "variables")
    assert main(argv + ["--json"]) == 0
    assert "curl" not in capsys.readouterr().out
    assert main(["mixed", "kdv", "--generator", "X4"]) == 0
    assert "curl triviality" not in capsys.readouterr().out
    with pytest.raises(SystemExit):
        main(["mixed", "--help"])
    assert "for two independent variables only" in " ".join(
        capsys.readouterr().out.split())


def test_readme_library_example_runs():
    # the README's Library block imports exactly the names the package
    # exports, and its example runs
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Library", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    imported = {alias.name for node in ast.parse(code).body
                if isinstance(node, ast.ImportFrom)
                and node.module == "clawforge" for alias in node.names}
    exported = {k for k, v in vars(clawforge).items()
                if not k.startswith("_") and not inspect.ismodule(v)}
    assert imported == exported
    exec(code, {})


@pytest.mark.parametrize("argv", [
    ["mixed", "{model}", "--generator", "X1"],
    ["multipliers", "{model}"],
], ids=["mixed", "multipliers"])
def test_user_model_with_bad_law_is_an_input_error(tmp_path, capsys, argv):
    # a user model's [laws] are checked on load, though neither command
    # reads them
    model = tmp_path / "burgers.model"
    model.write_text("[vars]\nindependent: t, x\ndependent: u\n"
                     "[equations]\nu[t] = u[x,x] + u*u[x]\n"
                     "[generators]\nX1: x = 1\n"
                     "[laws]\nbroken: u | u[x\n")
    assert main([a.format(model=model) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {model}: expected ']', found end of "
                            "input (at position 3) (line 9)\n")


@pytest.mark.parametrize("argv", [
    ["mixed", "{model}", "--generator", "X1"],
    ["multipliers", "{model}"],
], ids=["mixed", "multipliers"])
def test_user_model_with_unknown_ansatz_variable_is_an_input_error(
        tmp_path, capsys, argv):
    model = tmp_path / "kdv.model"
    model.write_text("[vars]\nindependent: t, x\ndependent: u\n"
                     "[equations]\nu[t] = u[x,x,x] + u*u[x]\n"
                     "[generators]\nX1: x = 1\n"
                     "[ansatz]\npsi_vars: q\n")
    assert main([a.format(model=model) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {model}: unknown ansatz variable 'q' "
                            "(line 9)\n")


# -- integers past the interpreter's 4,300-digit conversion limit --------------

BIG = 2 ** 20000    # 6,021 decimal digits


def _digits_ok(text, n):
    """`text` is the decimal form of n, checked by its length and by its
    first and last 20 digits, without converting n whole."""
    size = len(text)
    return (n // 10 ** (size - 1) in range(1, 10)
            and text[-20:] == str(n % 10 ** 20).zfill(20)
            and text[:20] == str(n // 10 ** (size - 20)))


def test_euler_prints_a_coefficient_beyond_the_digit_limit(capsys):
    assert main(["euler", "kdv", "2^20000*u"]) == 0
    out = capsys.readouterr().out.strip()
    assert len(out) == 6021 and _digits_ok(out, BIG)


def test_literal_beyond_the_digit_limit(capsys):
    literal = "123456789" * 555 + "12345"       # 5,000 digits
    assert main(["euler", "kdv", literal + "*u"]) == 0
    assert capsys.readouterr().out.strip() == literal
    assert main(["euler", "kdv", "u " + literal]) == 2
    err = capsys.readouterr().err
    assert "unexpected trailing input " + literal in err


def test_verify_law_with_a_coefficient_beyond_the_digit_limit(tmp_path,
                                                              capsys):
    laws = tmp_path / "big.laws"
    laws.write_text("[laws]\nbig: 2^20000*u | -2^20000*(u^2/2 + u[x,x])\n")
    assert main(["verify", "kdv", str(laws)]) == 0
    assert "all laws verify" in capsys.readouterr().out
    assert main(["verify", "kdv", str(laws), "--json"]) == 0
    law, = json.loads(capsys.readouterr().out)["laws"]
    assert law["residual"] == "0" and law["fluxes"][0].endswith("*u")


def test_big_numbers_print_and_parse_back():
    table = get_model("kdv").table
    den = "7" * 4400
    e = parse(f"2^20000*u/3^9000 - u[x]^2*{'9' * 4500} + (1 + u)^(1/{den})"
              f" + u^(-{den})", table)
    assert parse(str(e), table) == e
    assert f"^(1/{den})" in str(e) and f"u^(-{den})" in str(e)


# -- one process, several models ------------------------------------------------

MIXED_KDV = ["mixed", "kdv", "--generator", "X4", "--json"]
MIXED_GAS1D = ["mixed", "gas1d", "--generator", "X0", "--psi-degree", "1",
               "--json"]


@pytest.mark.parametrize("first, second", [(MIXED_KDV, MIXED_GAS1D),
                                           (MIXED_GAS1D, MIXED_KDV)])
def test_models_run_in_one_process_print_what_separate_processes_do(first,
                                                                    second):
    """Atoms are interned for the whole process, and kdv's u and gas1d's
    rho are both dependent variable 0 of a (t, x) model: two mixed runs in
    one process, in either order, print byte for byte what each prints in
    a process of its own, as benchmark sweeps run them."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ,
               PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))

    def run(*argvs):
        code = ("import sys; from clawforge.cli import main\n"
                f"for argv in {list(argvs)!r}:\n"
                "    assert main(argv) == 0\n"
                "    print('\\x00')\n")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        return out.stdout

    assert run(first, second) == run(first) + run(second)
