"""Exact linear algebra over the rationals for determining systems.

Matrices store their rows sparse (determining systems are mostly zeros);
the nullspace presolve works on those rows directly.  Elimination is
fraction-free (Bareiss) on a common-denominator integer dense copy of what
is left, back-substitution stays on integers, and each row is divided by
its pivot once at the end to give the reduced row-echelon form.  Values
are exact rationals in the engine's representation: an `int` when
integral, else a reduced `Fraction`, never a float; every division goes
through `expr._quot`.  Bases are deterministic given the row and column
order (reduced-echelon pivoting)."""

from __future__ import annotations

import heapq
from math import gcd

from .expr import _num, _quot


class RationalMatrix:
    """rows x cols matrix of exact rationals, stored as sparse rows: one dict
    column -> nonzero value per row.  A row may be given as a dict or as
    a dense sequence; `ncols` defaults to the length of the first row and
    must be passed for dict rows or for a system that may have no rows."""

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
                if any(not 0 <= c < ncols for c in r):
                    raise ValueError("column index out of range")
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
    def rows(self):
        """Dense view: one list of ncols values per row."""
        out = []
        for r in self.sparse_rows:
            dense = [0] * self.ncols
            for c, x in r.items():
                dense[c] = x
            out.append(dense)
        return out

    def mul_vector(self, v):
        if len(v) != self.ncols:
            raise ValueError("dimension mismatch")
        return [_num(sum(x * v[c] for c, x in r.items()))
                for r in self.sparse_rows]

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

    def __iter__(self):
        return iter(self.basis)


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


def _integerize(row):
    den = 1
    for x in row:
        den = den * x.denominator // gcd(den, x.denominator)
    return [int(x * den) for x in row]


def _bareiss(rows, ncols):
    """Fraction-free forward elimination; returns (rows, pivot column list).
    Rows come out as integers scaled row-by-row; only ratios matter."""
    rows = [list(r) for r in rows]
    piv_cols = []
    prev = 1
    r = 0
    for c in range(ncols):
        p = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                p = i
                break
        if p is None:
            continue
        if p != r:
            rows[r], rows[p] = rows[p], rows[r]
        pivot_row = rows[r]
        pivot = pivot_row[c]
        for i in range(r + 1, len(rows)):
            row = rows[i]
            f = row[c]
            if f == 0:
                if pivot != prev:
                    for j in range(ncols):
                        row[j] = (pivot * row[j]) // prev
                continue
            for j in range(ncols):
                row[j] = (pivot * row[j] - f * pivot_row[j]) // prev
            row[c] = 0
        prev = pivot
        piv_cols.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, piv_cols


def rref(matrix):
    """Reduced row-echelon form (exact)."""
    rows, piv_cols = _rref_rows(matrix.rows, matrix.ncols)
    return RationalMatrix(rows, ncols=matrix.ncols)


def _rref_rows(in_rows, ncols):
    rows = [_integerize(r) for r in in_rows]
    rows, piv_cols = _bareiss(rows, ncols)
    # back-substitute on integers (each row kept primitive), then divide
    # each row by its pivot; the rows past the rank are zero
    for k in range(len(piv_cols) - 1, -1, -1):
        c = piv_cols[k]
        prow = rows[k]
        pivot = prow[c]
        for i in range(k):
            f = rows[i][c]
            if f:
                row = [pivot * a - f * b for a, b in zip(rows[i], prow)]
                g = gcd(*row)
                rows[i] = [a // g for a in row]
    out = [[_quot(x, rows[k][c]) for x in rows[k]]
           for k, c in enumerate(piv_cols)]
    # pad zero rows back to the original row count
    out += [[0] * ncols for _ in range(len(in_rows) - len(out))]
    return out, piv_cols


def rank(matrix):
    _, piv = _rref_rows(matrix.rows, matrix.ncols)
    return len(piv)


def nullspace(matrix):
    """Exact basis of {v : Mv = 0}; dimension = cols - rank.

    Determining systems are sparse, so singleton rows (one live column) are
    presolved away before elimination: such a column is forced to zero and
    every row it appears in shrinks, often cascading."""
    forced = set()
    live_rows = [dict(r) for r in matrix.sparse_rows]
    changed = True
    while changed:
        changed = False
        keep = []
        for row in live_rows:
            for c in forced & row.keys():
                del row[c]
            if len(row) == 1:
                forced.add(next(iter(row)))
                changed = True
            elif row:
                keep.append(row)
        live_rows = keep
    remaining = [c for c in range(matrix.ncols) if c not in forced]
    index = {c: i for i, c in enumerate(remaining)}
    dedup = {}
    for row in live_rows:
        key = tuple(sorted((index[c], x) for c, x in row.items()))
        dedup.setdefault(key, row)
    reduced = [[0] * len(remaining) for _ in dedup]
    for out, row in zip(reduced, dedup.values()):
        for c, x in row.items():
            out[index[c]] = x
    if reduced:
        rows, piv_cols = _rref_rows(reduced, len(remaining))
    else:
        rows, piv_cols = [], []
    piv_set = set(piv_cols)
    basis = []
    for j, fc in enumerate(remaining):
        if j in piv_set:
            continue
        v = [0] * matrix.ncols
        v[fc] = 1
        for k, c in enumerate(piv_cols):
            if rows[k][j] != 0:
                v[remaining[c]] = -rows[k][j]
        basis.append(v)
    return SolutionSpace(basis, [0] * matrix.ncols)


def solve(matrix, rhs):
    """Solve Mv = rhs exactly.  Returns a SolutionSpace (particular plus the
    homogeneous nullspace) or None when the system is inconsistent."""
    if len(rhs) != matrix.nrows:
        raise ValueError("dimension mismatch")
    aug_rows = [list(r) + [b] for r, b in zip(matrix.rows, rhs)]
    rows, piv_cols = _rref_rows(aug_rows, matrix.ncols + 1)
    if matrix.ncols in piv_cols:
        return None
    particular = [0] * matrix.ncols
    for k, c in enumerate(piv_cols):
        particular[c] = rows[k][matrix.ncols]
    null = nullspace(matrix)
    return SolutionSpace(null.basis, particular)


class ColumnSpace:
    """Sparse exact column-space membership with combination tracking.

    Columns are dicts key -> rational over an arbitrary ordered key space.
    `member` answers b in span(columns) and returns coefficients expressing
    b in the original columns; building the echelon basis once makes
    repeated membership queries cheap."""

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
        self.pivots = {}    # pivot column -> row index, in row order

    def _reduce(self, row, b):
        """Eliminate the pivots from row in row order, visiting only the
        rows whose pivots it holds; a row holds no earlier row's pivot."""
        row = _sparse(row)
        todo = [(self.pivots[c], c) for c in row if c in self.pivots]
        heapq.heapify(todo)
        while todo:
            i, p = heapq.heappop(todo)
            f = row.get(p)
            if not f:
                continue    # a duplicate entry, already eliminated
            r = self.rows[i]
            _axpy(row, f, r)
            b = _num(b - f * self.rhs[i])
            for c in r:
                j = self.pivots.get(c, i)
                if j > i and c in row:
                    heapq.heappush(todo, (j, c))
        return row, b

    def try_add(self, row, b):
        if not isinstance(row, dict):
            row = dict(enumerate(row))
        row, b = self._reduce(row, b)
        if not row:
            return b == 0
        piv = min(row)
        inv = row[piv]
        self.pivots[piv] = len(self.rows)
        self.rows.append({c: _quot(x, inv) for c, x in row.items()})
        self.rhs.append(_quot(b, inv))
        return True

    def solution(self):
        """A particular solution of the accepted constraints (free
        coordinates zero)."""
        sol = [0] * self.ncols
        for r, rb, p in reversed(list(zip(self.rows, self.rhs, self.pivots))):
            sol[p] = _num(rb - sum(x * sol[c] for c, x in r.items() if c != p))
        return sol


def span_equal(vectors_a, vectors_b):
    """True when the two lists of rational vectors span the same subspace
    (mutual membership via exact elimination)."""
    if not vectors_a and not vectors_b:
        return True
    ncols = len(vectors_a[0]) if vectors_a else len(vectors_b[0])
    if any(len(v) != ncols for v in list(vectors_a) + list(vectors_b)):
        return False
    ra = rank(RationalMatrix(list(vectors_a))) if vectors_a else 0
    rb = rank(RationalMatrix(list(vectors_b))) if vectors_b else 0
    rc = rank(RationalMatrix(list(vectors_a) + list(vectors_b)))
    return ra == rb == rc
