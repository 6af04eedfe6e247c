import pytest

from clawforge.modelfile import (ModelFormatError, ansatz_spaces, load_model,
                                 parse_model_text)


GOOD = """
[model]
name: demo
title: a demo model

[vars]
independent: t, x
dependent: u
parameters: c0
functions: f

[equations]
u[t] = u[x,x,x] + u*u[x]

[generators]
X1: x = t; u = -1
X4: x = 1

[laws]
basic: u | -(u^2/2 + u[x,x])
basic.status: sign-corrected
basic.note: quadratic flux term

[ansatz]
psi_degree: 1
h_degree: 2
h_vars: u
"""


def test_parse_good_model():
    m = parse_model_text(GOOD)
    assert m.name == "demo"
    assert m.title == "a demo model"
    assert [v.name for v in m.table.indep] == ["t", "x"]
    assert m.system.order == 3
    assert set(m.generators) == {"X1", "X4"}
    g = m.generators["X1"]
    assert str(g.xi[1]) == "t" and str(g.eta[0]) == "-1"
    assert str(g.xi[0]) == "0"
    law = m.laws["basic"]
    assert law.status == "sign-corrected"
    assert law.note == "quadratic flux term"
    assert m.ansatz == {"psi_degree": 1, "h_degree": 2, "h_vars": ["u"]}


def test_missing_sections():
    with pytest.raises(ModelFormatError):
        parse_model_text("[vars]\nindependent: t\ndependent: u\n")
    with pytest.raises(ModelFormatError):
        parse_model_text("[equations]\nu[t] = u\n")


def test_bad_equation_lead():
    text = GOOD.replace("u[t] = u[x,x,x] + u*u[x]", "2*u[t] = u[x]")
    with pytest.raises(ModelFormatError):
        parse_model_text(text)


def test_law_component_count():
    text = GOOD.replace("basic: u | -(u^2/2 + u[x,x])", "basic: u")
    with pytest.raises(ModelFormatError):
        parse_model_text(text)


def test_unknown_generator_variable():
    text = GOOD.replace("X4: x = 1", "X4: y = 1")
    with pytest.raises(ModelFormatError):
        parse_model_text(text)


def test_unknown_ansatz_key():
    for key in ("psi_power", "degree", "order"):
        text = GOOD.replace("psi_degree: 1", f"{key}: 1")
        with pytest.raises(ModelFormatError,
                           match=rf"unknown \[ansatz\] key '{key}'"):
            parse_model_text(text)


def test_negative_ansatz_integer():
    for key in ("psi_degree", "h_jets"):
        text = GOOD.replace("psi_degree: 1", f"{key}: -1")
        line = text.splitlines().index(f"{key}: -1") + 1
        with pytest.raises(ModelFormatError) as info:
            parse_model_text(text)
        assert str(info.value) == \
            f"[ansatz] {key} must be nonnegative (line {line})"


@pytest.mark.parametrize("old,new,bad,message", [
    ("basic.status: sign-corrected",
     "basic.status: sign-corrected\nbasic: u | u", "basic: u | u",
     "duplicate law 'basic'"),
    ("basic.note: quadratic flux term",
     "basic.note: quadratic flux term\nbasic.note: again",
     "basic.note: again", "duplicate law attribute 'basic.note'"),
    ("X4: x = 1", "X4: x = 1\nX4: t = 1", "X4: t = 1",
     "duplicate generator 'X4'"),
    ("name: demo", "name: demo\nname: other", "name: other",
     "duplicate [model] key 'name'"),
    ("dependent: u", "dependent: u\ndependent: v", "dependent: v",
     "duplicate [vars] key 'dependent'"),
    ("h_degree: 2", "h_degree: 2\nh_degree: 3", "h_degree: 3",
     "duplicate [ansatz] key 'h_degree'"),
    ("name: demo", "nmae: demo", "nmae: demo", "unknown [model] key 'nmae'"),
    ("parameters: c0", "parameter: c0", "parameter: c0",
     "unknown [vars] key 'parameter'"),
    ("[generators]", "[generator]", "[generator]",
     "unknown section '[generator]'"),
    ("X4: x = 1", "X4: x = c0", "X4: x = c0",
     "coefficient 'c0' of generator X4 contains a parameter"),
    ("X4: x = 1", "X4: x = t; x = 2*t; u = -1", "X4: x = t; x = 2*t; u = -1",
     "duplicate coefficient 'x' in generator X4"),
    ("X4: x = 1", "X4: x = 1; v = u", "X4: x = 1; v = u",
     "unknown variable 'v' in generator X4"),
], ids=["duplicate-law", "duplicate-law-attribute", "duplicate-generator",
        "duplicate-model-key", "duplicate-vars-key", "duplicate-ansatz-key",
        "unknown-model-key", "unknown-vars-key", "unknown-section",
        "generator-parameter", "duplicate-generator-coefficient",
        "unknown-generator-variable"])
def test_input_error_names_the_line(old, new, bad, message):
    # a repeated name would silently replace the first one, and a misspelt
    # key or section would be ignored; each is an error at its own line
    text = GOOD.replace(old, new)
    line = text.splitlines().index(bad) + 1
    with pytest.raises(ModelFormatError) as info:
        parse_model_text(text)
    assert str(info.value) == f"{message} (line {line})"


def test_attribute_for_unknown_law():
    text = GOOD + "\n[laws]\nmissing.status: printed\n"
    with pytest.raises(ModelFormatError):
        parse_model_text(text)


def test_parse_error_carries_line():
    text = GOOD.replace("u[t] = u[x,x,x] + u*u[x]", "u[t] = u[y]")
    with pytest.raises(ModelFormatError) as err:
        parse_model_text(text)
    assert "line" in str(err.value)


def test_load_model_roundtrip(tmp_path):
    path = tmp_path / "demo.model"
    path.write_text(GOOD)
    m = load_model(str(path))
    assert m.name == "demo"


def test_ansatz_spaces_shapes():
    m = parse_model_text(GOOD)
    spaces = ansatz_spaces(m)
    assert len(spaces["psi"]) == 1
    assert len(spaces["h"]) == 2
    # psi_degree 1 over (t, x, u): monomials 1, t, x, u
    assert len(spaces["psi"][0].basis) == 4
    # h restricted to u at degree 2: 1, u, u^2
    assert len(spaces["h"][0].basis) == 3
    assert spaces["theta"] is not None


def test_ansatz_spaces_overrides():
    m = parse_model_text(GOOD)
    spaces = ansatz_spaces(m, psi_degree=0)
    assert len(spaces["psi"][0].basis) == 1


@pytest.mark.parametrize("key", ["psi_vars", "h_vars", "theta_vars"])
def test_unknown_ansatz_variable_is_an_error_at_load(key):
    base = GOOD.replace("h_vars: u\n", "")
    text = base + f"{key}: u, q, x\n"
    line = text.splitlines().index(f"{key}: u, q, x") + 1
    with pytest.raises(ModelFormatError) as info:
        parse_model_text(text)
    assert str(info.value) == f"unknown ansatz variable 'q' (line {line})"
    # a name given as an override is still checked when the space is built
    m = parse_model_text(base + f"{key}: u, x\n")
    with pytest.raises(ModelFormatError, match="unknown ansatz variable 'q'"):
        ansatz_spaces(m, **{key: ["q"]})
