"""Exact linear algebra over the rationals for determining systems.

Matrices store their rows sparse (determining systems are mostly zeros).
One eliminator serves every routine: `IncrementalSystem` grows a sparse
echelon one row at a time, pivots on the smallest column of each new row
and normalizes that pivot to 1; it can record each row's eliminations,
which `lawgen.WitnessSpace` replays on a law in a forward pass, whose
leftover decides triviality and equivalence, before its back pass over
the echelon rows, last row first.  `nullspace` and `solve` (the latter
only for `lawgen.fluxes_from_multipliers`) back-substitute it, last row
first, into the reduced row-echelon form.
That form is unique, so a basis or a particular solution depends only on
the column order.  Values are exact rationals in the engine's
representation: an `int` when integral, else a reduced `Fraction`, never a
float; every division goes through `expr._quot`.

`ColumnSpace` is not used by the library; it is kept as the test oracle
for `WitnessSpace.fit` and for the benchmark tracer
(`perfbench/tracer.py`)."""

from __future__ import annotations

import heapq

from .expr import _num, _quot


class RationalMatrix:
    """rows x cols matrix of exact rationals, stored as sparse rows: one dict
    column -> nonzero value per row.  A row may be given as a dict or as
    a dense sequence; `ncols` defaults to the length of the first row and
    must be passed for dict rows or for a system that may have no rows.
    A dict row with no zero entry is kept as given, not copied, so the
    caller must not change it afterwards."""

    def __init__(self, rows, ncols=None):
        rows = list(rows)
        if ncols is None:
            if rows and isinstance(rows[0], dict):
                raise ValueError("ncols is required for sparse rows")
            ncols = len(rows[0]) if rows else 0
        self.ncols = ncols
        self.sparse_rows = []
        for r in rows:
            if isinstance(r, dict):
                if r and (min(r) < 0 or max(r) >= ncols):
                    raise ValueError("column index out of range")
                if not all(r.values()):
                    r = _sparse(r)
            else:
                if len(r) != ncols:
                    raise ValueError("ragged matrix")
                r = _sparse(dict(enumerate(r)))
            self.sparse_rows.append(r)

    @property
    def nrows(self):
        return len(self.sparse_rows)

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    @property
    def rows(self):
        """Dense view: one list of ncols values per row."""
        out = []
        for r in self.sparse_rows:
            dense = [0] * self.ncols
            for c, x in r.items():
                dense[c] = x
            out.append(dense)
        return out

    def __repr__(self):
        return f"RationalMatrix({self.nrows}x{self.ncols})"


class SolutionSpace:
    """Affine solution set: particular + span(basis).  For homogeneous
    systems the particular solution is the zero vector."""

    def __init__(self, basis, particular):
        self.basis = [tuple(v) for v in basis]
        self.particular = tuple(particular)

    @property
    def dimension(self):
        return len(self.basis)


def _sparse(vec):
    """Copy of a sparse vector without its zero entries."""
    return {k: x for k, x in vec.items() if x}


def _axpy(vec, f, other):
    """vec -= f * other in place, dropping entries that cancel."""
    for k, x in other.items():
        cur = vec.get(k)
        nv = -(f * x) if cur is None else cur - f * x
        if nv:
            vec[k] = _num(nv)
        else:
            vec.pop(k, None)


class ColumnSpace:
    """Sparse exact column-space membership with combination tracking.

    Columns are dicts key -> rational over an arbitrary ordered key space.
    `member` answers b in span(columns) and returns coefficients expressing
    b in the original columns; building the echelon basis once makes
    repeated membership queries cheap.

    The library does not use it: triviality is decided by
    `lawgen.WitnessSpace.fit`, one echelon with no combination tracking.
    It is kept for its tests, where it is an oracle for that fit, and for
    `perfbench/tracer.py`, which wraps `add_column` and `member`."""

    def __init__(self):
        self.basis = []   # (pivot_key, vec: dict, combo: dict[index, value])
        self.ncols = 0

    def _reduce(self, vec, combo):
        """Eliminate the basis pivots from vec, in place, tracking the
        combination in combo."""
        for pivot, bvec, bcombo in self.basis:
            f = vec.get(pivot)
            if not f:
                continue
            _axpy(vec, f, bvec)
            _axpy(combo, f, bcombo)
        return vec, combo

    def add_column(self, vec):
        index = self.ncols
        self.ncols += 1
        vec, combo = self._reduce(_sparse(vec), {index: 1})
        if vec:
            pivot = max(vec)
            inv = vec[pivot]
            vec = {k: _quot(x, inv) for k, x in vec.items()}
            combo = {i: _quot(x, inv) for i, x in combo.items()}
            self.basis.append((pivot, vec, combo))
        return index

    def member(self, b):
        """Coefficients c (by column index) with sum(c_i * col_i) = b, or
        None when b is outside the span."""
        vec, combo = self._reduce(_sparse(b), {})
        if vec:
            return None
        return {i: -x for i, x in combo.items()}


class IncrementalSystem:
    """Grow a linear system one constraint at a time, keeping rows in
    sparse echelon form; `try_add` reports whether the new constraint is
    consistent with the accepted ones and accepts it when so.  Rows are
    dicts column -> coefficient."""

    def __init__(self, ncols):
        self.ncols = ncols
        self.rows = []      # echelon rows as dicts, pivot normalized to 1
        self.rhs = []
        self.scales = []    # each row's pivot value before normalization
        self.pivots = {}    # pivot column -> row index, in row order

    def _reduce(self, row, b, steps=None):
        """Eliminate the pivots from row in row order, visiting only the
        rows whose pivots it holds.  A row holds no earlier row's pivot,
        so an elimination brings in only later rows' pivots.  Each
        elimination (row index, factor) is appended to `steps` when it is
        a list."""
        pivots = self.pivots
        row = _sparse(row)
        todo = [(pivots[c], c) for c in row if c in pivots]
        heapq.heapify(todo)
        while todo:
            i, p = heapq.heappop(todo)
            f = row.pop(p, None)
            if f is None:
                continue    # a duplicate entry, already eliminated
            for c, x in self.rows[i].items():
                cur = row.get(c)
                if cur is None:
                    if c != p:
                        row[c] = _num(-(f * x))
                        if c in pivots:
                            heapq.heappush(todo, (pivots[c], c))
                else:
                    nv = cur - f * x
                    if nv:
                        row[c] = _num(nv)
                    else:
                        del row[c]
            if self.rhs[i]:
                b = _num(b - f * self.rhs[i])
            if steps is not None:
                steps.append((i, f))
        return row, b

    def try_add(self, row, b, steps=None):
        """Accept the constraint row . x = b when it is consistent with the
        accepted ones; a row independent of them becomes a new echelon
        row.  `steps`, when a list, receives the eliminations that reduced
        the row, as `_reduce` records them."""
        row, b = self._reduce(row, b, steps)
        if not row:
            return b == 0
        piv = min(row)
        inv = row[piv]
        self.pivots[piv] = len(self.rows)
        self.rows.append({c: _quot(x, inv) for c, x in row.items()})
        self.rhs.append(_quot(b, inv))
        self.scales.append(inv)
        return True

    def solution(self):
        """A particular solution of the accepted constraints (free
        coordinates zero)."""
        sol = [0] * self.ncols
        for r, rb, p in reversed(list(zip(self.rows, self.rhs, self.pivots))):
            sol[p] = _num(rb - sum(x * sol[c] for c, x in r.items() if c != p))
        return sol


def _echelon(matrix, rhs=None):
    """The sparse echelon of the matrix rows, fed once through
    `IncrementalSystem.try_add` (right-hand sides zero when rhs is None);
    None when the system is inconsistent.  Each distinct (row, rhs) pair is
    fed once: a repeat would reduce to 0 = 0.  Short rows go first: a
    singleton row forces its column, which later rows then lose at the cost
    of one entry each."""
    inc = IncrementalSystem(matrix.ncols)
    pairs = {(frozenset(row.items()), b): row
             for row, b in zip(matrix.sparse_rows, rhs or [0] * matrix.nrows)}
    for (_, b), row in sorted(pairs.items(), key=lambda p: len(p[1])):
        if not inc.try_add(row, b):
            return None
    return inc


def _reduced(inc):
    """(pivot, row, rhs) of each row of the reduced row-echelon form, by
    pivot column.  A row of the echelon holds no earlier row's pivot, so
    back-substituting the later rows into each row, last row first, leaves
    each row with no pivot but its own."""
    rows, rhs = [dict(r) for r in inc.rows], list(inc.rhs)
    piv = list(inc.pivots)
    for i in range(len(rows) - 1, -1, -1):
        row = rows[i]
        for c in [c for c in row if c != piv[i] and c in inc.pivots]:
            j, f = inc.pivots[c], row[c]
            _axpy(row, f, rows[j])
            rhs[i] = _num(rhs[i] - f * rhs[j])
    return sorted(zip(piv, rows, rhs), key=lambda t: t[0])


def nullspace(matrix):
    """Exact basis of {v : Mv = 0}; dimension = cols - rank."""
    return solve(matrix, [0] * matrix.nrows)


def solve(matrix, rhs):
    """Solve Mv = rhs exactly.  Returns a SolutionSpace or None when the
    system is inconsistent.  The particular solution is zero on the free
    columns; the basis holds one vector per free column, 1 there and minus
    that column of the reduced rows at their pivots."""
    if len(rhs) != matrix.nrows:
        raise ValueError("dimension mismatch")
    inc = _echelon(matrix, rhs)
    if inc is None:
        return None
    particular = [0] * matrix.ncols
    free = {c: [0] * matrix.ncols for c in range(matrix.ncols)
            if c not in inc.pivots}
    for c, v in free.items():
        v[c] = 1
    for p, row, b in _reduced(inc):
        particular[p] = b
        for c, x in row.items():
            if c != p:
                free[c][p] = -x
    return SolutionSpace(free.values(), particular)
