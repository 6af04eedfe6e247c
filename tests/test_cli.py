import json

import pytest

from clawforge.cli import main
from clawforge.corpus import get_model
from clawforge.parse import parse


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
    assert main(["verify", "kdv", "kdv"]) == 0


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
        "error: unknown generator 'X9'; have ['X1', 'X2', 'X3', 'X4']\n")


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


def test_help_lists_exit_codes(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    assert "3 internal error" in " ".join(capsys.readouterr().out.split())


def test_parse_error_exit_code(capsys):
    assert main(["euler", "kdv", "u[x"]) == 2


def test_verify_missing_laws_file(capsys):
    assert main(["verify", "kdv", "/no/such/file.laws"]) == 2


@pytest.mark.parametrize("line,message", [
    ("density-u.colour: red", "unknown law attribute 'colour'"),
    ("ghost.status: printed", "attribute for unknown law 'ghost'"),
    ("broken: u | u[x", "expected ']', found None (at position 3)"),
], ids=["unknown-attribute", "undefined-law", "bad-expression"])
def test_verify_rejects_bad_laws_file(tmp_path, capsys, line, message):
    laws = tmp_path / "bad.laws"
    laws.write_text(CORRECTED_KDV_LAWS + line + "\n")
    assert main(["verify", "kdv", str(laws)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {laws}: {message} (line 5)\n"


def test_user_model_file(tmp_path, capsys):
    model = tmp_path / "burgers.model"
    model.write_text("""
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
    assert main(["verify", str(model), str(model)]) == 0
    assert main(["mixed", str(model), "--generator", "X2",
                 "--psi-degree", "1"]) == 0
