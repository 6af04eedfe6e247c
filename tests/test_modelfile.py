import pytest

from clawforge.modelfile import (ModelFormatError, ansatz_spaces, load_model,
                                 parse_model_text)


GOOD = """
[model]
name: demo

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


def test_generator_lookup_error():
    m = parse_model_text(GOOD)
    with pytest.raises(KeyError):
        m.generator("X9")
