"""Exact linear algebra over the rationals for determining systems.

Elimination is fraction-free (Bareiss) on a common-denominator integer
copy of the matrix, then pivots are normalized to reduced row-echelon form.
All results are exact; bases are deterministic given the row and column
order (reduced-echelon pivoting)."""

from __future__ import annotations

from fractions import Fraction
from math import gcd


class RationalMatrix:
    """Dense rows x cols matrix of exact rationals.  `ncols` defaults to the
    row length; pass it for a system that may have no rows."""

    def __init__(self, rows, ncols=None):
        self.rows = [[Fraction(x) for x in r] for r in rows]
        if ncols is None:
            ncols = len(self.rows[0]) if self.rows else 0
        self.ncols = ncols
        for r in self.rows:
            if len(r) != self.ncols:
                raise ValueError("ragged matrix")

    @property
    def nrows(self):
        return len(self.rows)

    def mul_vector(self, v):
        if len(v) != self.ncols:
            raise ValueError("dimension mismatch")
        return [sum((a * b for a, b in zip(row, v)), Fraction(0))
                for row in self.rows]

    def __repr__(self):
        return f"RationalMatrix({self.nrows}x{self.ncols})"


class SolutionSpace:
    """Affine solution set: particular + span(basis).  For homogeneous
    systems the particular solution is the zero vector."""

    def __init__(self, basis, particular):
        self.basis = [tuple(Fraction(x) for x in v) for v in basis]
        self.particular = tuple(Fraction(x) for x in particular)

    @property
    def dimension(self):
        return len(self.basis)

    def __iter__(self):
        return iter(self.basis)


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
    out = [[Fraction(x) for x in r] for r in rows]
    # back-substitute and normalize pivots
    for k in range(len(piv_cols) - 1, -1, -1):
        c = piv_cols[k]
        pivot = out[k][c]
        out[k] = [x / pivot for x in out[k]]
        for i in range(k):
            f = out[i][c]
            if f != 0:
                out[i] = [a - f * b for a, b in zip(out[i], out[k])]
    # pad zero rows back to the original row count
    while len(out) < len(in_rows):
        out.append([Fraction(0)] * ncols)
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
    live_rows = [{c: x for c, x in enumerate(r) if x != 0} for r in matrix.rows]
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
    reduced = [[Fraction(0)] * len(remaining) for _ in dedup]
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
        v = [Fraction(0)] * matrix.ncols
        v[fc] = Fraction(1)
        for k, c in enumerate(piv_cols):
            if rows[k][j] != 0:
                v[remaining[c]] = -rows[k][j]
        basis.append(v)
    return SolutionSpace(basis, [Fraction(0)] * matrix.ncols)


def solve(matrix, rhs):
    """Solve Mv = rhs exactly.  Returns a SolutionSpace (particular plus the
    homogeneous nullspace) or None when the system is inconsistent."""
    if len(rhs) != matrix.nrows:
        raise ValueError("dimension mismatch")
    aug_rows = [list(r) + [Fraction(b)] for r, b in zip(matrix.rows, rhs)]
    rows, piv_cols = _rref_rows(aug_rows, matrix.ncols + 1)
    if matrix.ncols in piv_cols:
        return None
    particular = [Fraction(0)] * matrix.ncols
    for k, c in enumerate(piv_cols):
        particular[c] = rows[k][matrix.ncols]
    null = nullspace(matrix)
    return SolutionSpace(null.basis, particular)


class ColumnSpace:
    """Sparse exact column-space membership with combination tracking.

    Columns are dicts key -> Fraction over an arbitrary ordered key space.
    `member` answers b in span(columns) and returns coefficients expressing
    b in the original columns; building the echelon basis once makes
    repeated membership queries cheap."""

    def __init__(self):
        self.basis = []   # (pivot_key, vec: dict, combo: dict[index, Fraction])
        self.ncols = 0

    def _reduce(self, vec, combo):
        vec = dict(vec)
        for pivot, bvec, bcombo in self.basis:
            f = vec.get(pivot)
            if not f:
                continue
            for k, x in bvec.items():
                nv = vec.get(k, Fraction(0)) - f * x
                if nv:
                    vec[k] = nv
                else:
                    vec.pop(k, None)
            for i, x in bcombo.items():
                nv = combo.get(i, Fraction(0)) - f * x
                if nv:
                    combo[i] = nv
                else:
                    combo.pop(i, None)
        return vec, combo

    def add_column(self, vec):
        index = self.ncols
        self.ncols += 1
        vec = {k: Fraction(x) for k, x in vec.items() if x != 0}
        vec, combo = self._reduce(vec, {index: Fraction(1)})
        if vec:
            pivot = max(vec)
            inv = vec[pivot]
            vec = {k: x / inv for k, x in vec.items()}
            combo = {i: x / inv for i, x in combo.items()}
            self.basis.append((pivot, vec, combo))
        return index

    def member(self, b):
        """Coefficients c (by column index) with sum(c_i * col_i) = b, or
        None when b is outside the span."""
        b = {k: Fraction(x) for k, x in b.items() if x != 0}
        vec, combo = self._reduce(b, {})
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
        self.pivots = []    # pivot column per row

    def _reduce(self, row, b):
        row = {c: Fraction(x) for c, x in row.items() if x != 0}
        b = Fraction(b)
        for r, rb, p in zip(self.rows, self.rhs, self.pivots):
            f = row.get(p)
            if not f:
                continue
            for c, x in r.items():
                nv = row.get(c, Fraction(0)) - f * x
                if nv:
                    row[c] = nv
                else:
                    row.pop(c, None)
            b -= f * rb
        return row, b

    def try_add(self, row, b):
        if not isinstance(row, dict):
            row = {c: x for c, x in enumerate(row) if x != 0}
        row, b = self._reduce(row, b)
        if not row:
            return b == 0
        piv = min(row)
        inv = row[piv]
        self.rows.append({c: x / inv for c, x in row.items()})
        self.rhs.append(b / inv)
        self.pivots.append(piv)
        return True

    def solution(self):
        """A particular solution of the accepted constraints (free
        coordinates zero)."""
        sol = [Fraction(0)] * self.ncols
        for r, rb, p in reversed(list(zip(self.rows, self.rhs, self.pivots))):
            sol[p] = rb - sum((x * sol[c] for c, x in r.items() if c != p),
                              Fraction(0))
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
