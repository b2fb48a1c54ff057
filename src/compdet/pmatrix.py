"""Dense matrices over the Laurent polynomial ring, and exact determinants.

`det` is the determinant every verifier calls:

* constants (a 0-variable ring) go to det_fractions, elimination on
  primitive integer rows: each row is cleared of denominators by its lcm,
  and after every step the gcd of each new row is divided out into an
  exact rational row multiplier.  Unlike integer Bareiss (Bareiss 1968),
  which carries the common factors of the factoring minors through every
  step, this keeps each row primitive (the classic contrast of Brown,
  JACM 1971, between primitive and subresultant remainder sequences);
* symbolic matrices go to det_minor_expansion, division-free dynamic
  programming over column subsets, which suits small polynomial entries in
  many variables, where elimination products blow up.

det_cofactor (naive cofactor expansion, capped at size ORACLE_BOUND_DEFAULT
unless the caller passes another bound) and det_fraction_free (polynomial
Bareiss with exact LaurentPoly.exquo steps) are library functions and test
cross-checks only.  Both eliminations pivot on the first row with a nonzero
entry in the column.

Row/column index sets at the public surface are 1-based sorted tuples, the
same convention the combinatorial maps use.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

from ._backend import muladd_terms
from .errors import CapabilityError, UsageError
from .laurent import LaurentPoly, unit_key

ORACLE_BOUND_DEFAULT = 6


class PolyMatrix:
    """Rectangular matrix of LaurentPoly entries sharing one ring."""

    __slots__ = ("nrows", "ncols", "num_vars", "_rows")

    def __init__(self, rows):
        if not rows or not rows[0]:
            raise UsageError("matrix needs at least one row and column")
        width = len(rows[0])
        nv = rows[0][0].num_vars
        for row in rows:
            if len(row) != width:
                raise UsageError("ragged rows")
            for e in row:
                if not isinstance(e, LaurentPoly) or e.num_vars != nv:
                    raise UsageError("entries must be LaurentPoly in one ring")
        self._rows = [list(row) for row in rows]
        self.nrows = len(rows)
        self.ncols = width
        self.num_vars = nv

    @classmethod
    def symbolic(cls, nrows, ncols):
        """Matrix of nrows*ncols independent variables, row-major order."""
        nv = nrows * ncols
        return cls(
            [
                [LaurentPoly.variable(nv, i * ncols + j + 1) for j in range(ncols)]
                for i in range(nrows)
            ]
        )

    @classmethod
    def constants(cls, values, num_vars=0):
        """Matrix of rational constants embedded in a num_vars ring."""
        return cls(
            [[LaurentPoly.const(num_vars, Fraction(v)) for v in row] for row in values]
        )

    def at(self, i, j):
        """Entry by 0-based position."""
        return self._rows[i][j]

    def row(self, i):
        return list(self._rows[i])

    def transpose(self):
        return PolyMatrix(
            [[self._rows[i][j] for i in range(self.nrows)] for j in range(self.ncols)]
        )

    def matmul(self, other):
        if self.ncols != other.nrows:
            raise UsageError("inner dimensions disagree")
        unit = unit_key(self.num_vars)
        out = []
        for i in range(self.nrows):
            out_row = []
            for j in range(other.ncols):
                acc = {}
                for k in range(self.ncols):
                    a = self._rows[i][k]
                    b = other._rows[k][j]
                    if a._terms and b._terms:
                        muladd_terms(acc, a._terms, b._terms, unit, 1)
                out_row.append(LaurentPoly(self.num_vars, acc))
            out.append(out_row)
        return PolyMatrix(out)

    def eval(self, point):
        """Rational matrix (nested lists of Fraction) at a point."""
        return [[e.eval(point) for e in row] for row in self._rows]

    def __eq__(self, other):
        return (
            isinstance(other, PolyMatrix)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and all(
                self._rows[i][j] == other._rows[i][j]
                for i in range(self.nrows)
                for j in range(self.ncols)
            )
        )

    __hash__ = None

    def __repr__(self):
        return f"PolyMatrix({self.nrows}x{self.ncols}, {self.num_vars} vars)"


def minor(m, rowset, colset):
    """Submatrix selected by 1-based sorted row and column index tuples."""
    rowset, colset = tuple(rowset), tuple(colset)
    if not rowset or not colset:
        raise UsageError("empty index set")
    if list(rowset) != sorted(set(rowset)) or list(colset) != sorted(set(colset)):
        raise UsageError("index sets must be strictly increasing")
    if rowset[-1] > m.nrows or colset[-1] > m.ncols or rowset[0] < 1 or colset[0] < 1:
        raise UsageError("index out of range")
    return PolyMatrix(
        [[m.at(i - 1, j - 1) for j in colset] for i in rowset]
    )


def _require_square(m):
    if m.nrows != m.ncols:
        raise UsageError("determinant of a non-square matrix")


def det_cofactor(m, bound=ORACLE_BOUND_DEFAULT):
    """Oracle determinant by cofactor expansion along the first row.

    Refuses matrices larger than ``bound`` so nobody leans on it for real
    work.
    """
    _require_square(m)
    if m.nrows > bound:
        raise CapabilityError(
            f"cofactor oracle limited to size {bound} (got {m.nrows})"
        )
    rows = [list(r) for r in m._rows]

    def rec(rowidx, cols):
        if len(cols) == 1:
            return rows[rowidx[0]][cols[0]]
        r = rowidx[0]
        total = LaurentPoly.zero(m.num_vars)
        sign = 1
        for p, j in enumerate(cols):
            e = rows[r][j]
            if not e.is_zero():
                sub = rec(rowidx[1:], cols[:p] + cols[p + 1 :])
                total = total + e * sub * sign
            sign = -sign
        return total

    return rec(tuple(range(m.nrows)), tuple(range(m.ncols)))


def det_fraction_free(m):
    """Bareiss fraction-free determinant; first nonzero pivot, exact divisions."""
    _require_square(m)
    n = m.nrows
    nv = m.num_vars
    work = [list(row) for row in m._rows]
    sign = 1
    prev = LaurentPoly.const(nv, 1)
    for k in range(n - 1):
        if work[k][k].is_zero():
            for r in range(k + 1, n):
                if not work[r][k].is_zero():
                    work[k], work[r] = work[r], work[k]
                    sign = -sign
                    break
            else:
                return LaurentPoly.zero(nv)
        pivot = work[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = pivot * work[i][j] - work[i][k] * work[k][j]
                work[i][j] = num.exquo(prev)
            work[i][k] = LaurentPoly.zero(nv)
        prev = pivot
    result = work[n - 1][n - 1]
    return -result if sign < 0 else result


def det_minor_expansion(m):
    """Division-free determinant: row-by-row Laplace expansion with memoized
    minors over column subsets.  Cost grows with 2^n but each step multiplies
    a minor by a single matrix entry, which is where sparse symbolic entries
    win big over elimination."""
    _require_square(m)
    n = m.nrows
    nv = m.num_vars
    unit = unit_key(nv)
    prev = {(): LaurentPoly.const(nv, 1)}
    for r in range(1, n + 1):
        cur = {}
        row = m._rows[r - 1]
        for subset in combinations(range(n), r):
            acc = {}
            sign = 1 if (r - 1) % 2 == 0 else -1
            for p, j in enumerate(subset):
                entry = row[j]
                if not entry.is_zero():
                    sub = prev[subset[:p] + subset[p + 1 :]]
                    if not sub.is_zero():
                        muladd_terms(acc, sub._terms, entry._terms, unit, sign)
                sign = -sign
            cur[subset] = LaurentPoly(nv, acc)
        prev = cur
    return prev[tuple(range(n))]


def det_fractions(rows):
    """Determinant of a square nested list of rationals, as a Fraction.

    Elimination on primitive integer rows.  Each row is an integer row times
    an exact rational multiplier, a reduced (num, den) pair of ints; a row
    starts cleared of denominators by their lcm.  A step replaces every
    row below the pivot by pivot*x - a*y, divides out the gcd of the new row
    and moves it, over the pivot, into the row's multiplier.  The integer
    rows are the primitive parts of the Schur-complement rows, so no operand
    exceeds its integer Bareiss counterpart; on the verifiers' matrices,
    whose minors factor, they are up to ten times smaller.  The determinant
    is the signed product of the true pivots, multiplier times pivot."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise UsageError("determinant of a non-square matrix")
    if n == 0:
        return Fraction(1)
    # each row of work is (multiplier numerator, denominator, integer row)
    work = []
    for row in rows:
        row = [Fraction(v) for v in row]
        row_scale = lcm(*(v.denominator for v in row))
        work.append(
            (1, row_scale, [v.numerator * (row_scale // v.denominator) for v in row])
        )
    # the determinant of the eliminated leading block, in lowest terms
    num, den = 1, 1
    # each step eliminates the leading column of the shrinking working block
    while len(work) > 1:
        r = next((r for r, (_, _, row) in enumerate(work) if row[0]), None)
        if r is None:
            return Fraction(0)
        if r:
            work[0], work[r] = work[r], work[0]
            num = -num
        top_num, top_den, top = work.pop(0)
        pivot = top[0]
        rest = top[1:]
        num *= top_num * pivot
        den *= top_den
        h = gcd(num, den)
        num, den = num // h, den // h
        # the last step leaves one 1-wide row, whose content is its entry
        last = len(rest) == 1
        for i, (mult_num, mult_den, row) in enumerate(work):
            a = row[0]
            if not a:
                work[i] = (mult_num, mult_den, row[1:])
                continue
            new = [pivot * x - a * y for x, y in zip(row[1:], rest)]
            g = 1
            if not last:
                g = gcd(*new)
                if not g:
                    return Fraction(0)
                if g != 1:
                    new = [v // g for v in new]
            mult_num *= g
            mult_den *= pivot
            h = gcd(mult_num, mult_den)
            work[i] = (mult_num // h, mult_den // h, new)
    last_num, last_den, (entry,) = work[0]
    return Fraction(num * last_num * entry, den * last_den)


def det(m):
    """Exact determinant of a square PolyMatrix: primitive-row elimination
    on the constants of a 0-variable matrix, minor expansion otherwise."""
    _require_square(m)
    if m.num_vars == 0:
        value = det_fractions([[e.constant_term() for e in row] for row in m._rows])
        return LaurentPoly.const(0, value)
    return det_minor_expansion(m)
