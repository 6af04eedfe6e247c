"""`WitnessSpace.fit` against two independent oracles on the kdv and fw
witness spaces: `ColumnSpace.member` over the same curl columns gives the
triviality verdict and the witness, and a fresh `IncrementalSystem` fed the
key rows of one law in priority order gives the coefficients that
stripping uses."""

import pytest

from clawforge.expr import _num
from clawforge.lawgen import WitnessSpace, _coeff_map, default_theta_ansatz
from clawforge.linsolve import ColumnSpace, IncrementalSystem
from clawforge.parse import parse

hyp = pytest.importorskip("hypothesis")
st = hyp.strategies

SETTINGS = hyp.settings(max_examples=40, deadline=None, derandomize=True)


def _space(entry):
    ws = WitnessSpace(entry.system, default_theta_ansatz(entry.table))
    cs = ColumnSpace()
    for col in ws.curls:
        cs.add_column(col)
    # a key no curl of the ansatz reaches: degree 9 is past its degree 3
    outside, = _coeff_map(entry.system.reduce(parse("u^9", entry.table)), 0)
    assert outside not in ws.columns
    return ws, cs, outside


@pytest.fixture(scope="module")
def spaces(kdv, fw):
    return {"kdv": _space(kdv), "fw": _space(fw)}


def _per_law_solution(ws, rhs_map):
    """The strip coefficients as one elimination per law computes them."""
    inc = IncrementalSystem(ws.ncols)
    extra = sorted(set(rhs_map) - set(ws.columns))
    for key in sorted(ws.columns, key=ws.priority) + extra:
        inc.try_add(ws.columns.get(key, {}), rhs_map.get(key, 0))
    return inc.solution()


def _same(x, y):
    return x == y and type(x) is type(y)


@pytest.mark.parametrize("name", ["kdv", "fw"])
def test_fit_matches_member_and_per_law_elimination(spaces, name):
    ws, cs, outside = spaces[name]
    weight = st.fractions(min_value=-5, max_value=5,
                          max_denominator=4).filter(bool)

    # a random combination of curl columns, plus (for about half the
    # draws) a few single keys that may take it outside their span, and
    # sometimes a key outside every witness column
    @SETTINGS
    @hyp.given(combo=st.lists(st.tuples(st.integers(0, ws.ncols - 1), weight),
                              max_size=4),
               extra=st.lists(st.tuples(st.sampled_from(sorted(ws.columns)),
                                        weight), max_size=3),
               off=st.booleans())
    def check(combo, extra, off):
        rhs = {}
        for m, w in combo:
            for key, x in ws.curls[m].items():
                rhs[key] = rhs.get(key, 0) + w * x
        for key, w in extra + ([(outside, 1)] if off else []):
            rhs[key] = rhs.get(key, 0) + w
        rhs = {k: _num(x) for k, x in rhs.items() if x}
        exact, coeffs = ws.fit(rhs)
        verdicts.add(exact)
        member = cs.member(rhs)
        assert exact == (member is not None)
        if exact:
            assert all(_same(coeffs[i], member.get(i, 0))
                       for i in range(ws.ncols))
        assert all(_same(a, b)
                   for a, b in zip(coeffs, _per_law_solution(ws, rhs)))
        if not extra and not off:
            assert exact

    verdicts = set()
    check()
    assert verdicts == {True, False}
