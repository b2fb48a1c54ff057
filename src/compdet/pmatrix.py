"""Matrices as lists of rows, and exact determinants.

A matrix is a list of equal-length rows.  Its entries are either Laurent
polynomials in one ring (symbolic mode) or rationals, ints and Fractions
(numeric mode).  `det`, `dot`, `minor_table` and `products` pick their
arithmetic by the type of the first entry.

`det` is the determinant every verifier calls, for the compound matrices,
the maximal minors and the character and macdonald grids alike:

* rational entries go to det_fractions, elimination on primitive integer
  rows: each column is cleared of denominators by its lcm (det A^T = det A,
  so the columns are eliminated as rows), and after every step the gcd of
  each new row is divided out into an exact rational row multiplier.
  Unlike integer Bareiss (Bareiss 1968), which carries the common factors
  of the factoring minors through every step, this keeps each row
  primitive (the classic contrast of Brown, JACM 1971, between primitive
  and subresultant remainder sequences).  The value is a Fraction;
* polynomial entries go to det_minor_expansion, the full-height entry of
  their minor_table: division-free dynamic programming over row subsets,
  which suits small polynomial entries in many variables, where
  elimination products blow up.

det_cofactor (naive cofactor expansion, capped at size ORACLE_BOUND_DEFAULT
unless the caller passes another bound) and det_fraction_free (polynomial
Bareiss with exact LaurentPoly.exquo steps) take polynomial rows.  No
verifier calls them: they are test cross-checks, kept here because the
benchmark's span tracer (perfbench/spans.py) binds them.  Both eliminations
pivot on the first row with a nonzero entry in the column.

`minor_table` is the one Laplace expansion, for both rings: it forms
every minor on a column set, each smaller minor once.  Polynomial rows
accumulate each minor in one term dict.  Rational rows run on integers:
each row is cleared by its lcm over the column set, and each minor is one
Fraction, the integer value over the product of its rows' scales.
`minor_matrix` is the one builder of a matrix of minors (the compound
matrix M and the n-th compound of a square matrix): one minor_table per
column set.
`products` clears each rational column by its lcm once, so each inner
product is one integer sum over two scales; polynomial columns take `dot`
of each pair.

Row/column index sets at the public surface are 1-based sorted tuples, the
same convention the combinatorial maps use.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm, prod
from operator import mul

from ._backend import muladd_terms
from .errors import CapabilityError, UsageError
from .laurent import LaurentPoly, unit_key

ORACLE_BOUND_DEFAULT = 6


def symbolic(nrows, ncols):
    """Rows of nrows*ncols independent variables, numbered row-major."""
    nv = nrows * ncols
    return [
        [LaurentPoly.variable(nv, i * ncols + j + 1) for j in range(ncols)]
        for i in range(nrows)
    ]


def _check_indices(rows, rowset, colset):
    if not rowset or not colset:
        raise UsageError("empty index set")
    if list(rowset) != sorted(set(rowset)) or list(colset) != sorted(set(colset)):
        raise UsageError("index sets must be strictly increasing")
    if rowset[-1] > len(rows) or colset[-1] > len(rows[0]) or rowset[0] < 1 or colset[0] < 1:
        raise UsageError("index out of range")


def minor(rows, rowset, colset):
    """Submatrix selected by 1-based sorted row and column index tuples."""
    rowset, colset = tuple(rowset), tuple(colset)
    _check_indices(rows, rowset, colset)
    return [[rows[i - 1][j - 1] for j in colset] for i in rowset]


def minor_table(rows, colset):
    """Every minor on one column set: {I: det rows^I_colset} over the
    1-based row sets I with len(colset) elements, keyed by sorted tuples.

    Laplace expansion along the columns: level k holds every k-row minor
    of the first k columns, each a signed sum of entries of column k times
    minors of level k-1, so every smaller minor is computed once.  Rational
    rows are first cleared of denominators by their lcm over colset, the
    expansion runs on ints, and each minor is divided by the product of its
    rows' scales.  Polynomial rows accumulate each minor in one term dict."""
    colset = tuple(colset)
    height = len(colset)
    _check_indices(rows, tuple(range(1, height + 1)), colset)
    poly = isinstance(rows[0][0], LaurentPoly)
    if poly:
        nv = rows[0][0].num_vars
        unit = unit_key(nv)
        entries = [[row[j - 1]._terms for j in colset] for row in rows]
        level = {(): {unit: 1}}
    else:
        scales, entries = zip(*(_cleared([row[j - 1] for j in colset]) for row in rows))
        level = {(): 1}
    for c in range(height):
        first_sign = -1 if c % 2 else 1
        below = level
        level = {}
        for subset in combinations(range(len(rows)), c + 1):
            total = {} if poly else 0
            sign = first_sign
            for t, i in enumerate(subset):
                entry = entries[i][c]
                if entry:
                    sub = below[subset[:t] + subset[t + 1 :]]
                    if not poly:
                        total += sign * entry * sub
                    elif sub:
                        muladd_terms(total, sub, entry, unit, sign)
                sign = -sign
            level[subset] = total
    if poly:
        return {
            tuple(i + 1 for i in subset): LaurentPoly(nv, terms)
            for subset, terms in level.items()
        }
    return {
        tuple(i + 1 for i in subset): Fraction(value, prod(scales[i] for i in subset))
        for subset, value in level.items()
    }


def minor_matrix(rows, row_sets, col_sets):
    """The matrix of minors [[det rows^I_J for J in col_sets] for I in
    row_sets], each column read off one minor_table."""
    tables = [minor_table(rows, J) for J in col_sets]
    return [[table[I] for table in tables] for I in row_sets]


def dot(xs, ys):
    """Sum of the products of paired entries: one term accumulator for
    polynomials, a Fraction sum for rationals."""
    if xs and isinstance(xs[0], LaurentPoly):
        nv = xs[0].num_vars
        unit = unit_key(nv)
        acc = {}
        for a, b in zip(xs, ys):
            if a._terms and b._terms:
                muladd_terms(acc, a._terms, b._terms, unit, 1)
        return LaurentPoly(nv, acc)
    return sum((a * b for a, b in zip(xs, ys)), Fraction(0))


def products(xcols, ycols):
    """The matrix [[dot(x, y) for y in ycols] for x in xcols].  Rational
    columns are cleared of denominators by their lcm once, so each cell is
    one integer sum of products over the two columns' scales."""
    if xcols and xcols[0] and isinstance(xcols[0][0], LaurentPoly):
        return [[dot(x, y) for y in ycols] for x in xcols]
    ys = [_cleared(y) for y in ycols]
    out = []
    for x in xcols:
        x_scale, x_ints = _cleared(x)
        out.append([
            Fraction(sum(map(mul, x_ints, y_ints)), x_scale * y_scale)
            for y_scale, y_ints in ys
        ])
    return out


def _cleared(values):
    """The lcm of the denominators of rational values, and the values
    times it, as ints."""
    scale = lcm(*(v.denominator for v in values))
    return scale, [v.numerator * (scale // v.denominator) for v in values]


def _require_square(rows):
    if any(len(row) != len(rows) for row in rows):
        raise UsageError("determinant of a non-square matrix")


def det_cofactor(rows, bound=ORACLE_BOUND_DEFAULT):
    """Oracle determinant of polynomial rows by cofactor expansion along the
    first row.

    Refuses matrices larger than ``bound`` so nobody leans on it for real
    work.
    """
    _require_square(rows)
    n = len(rows)
    if n > bound:
        raise CapabilityError(f"cofactor oracle limited to size {bound} (got {n})")
    nv = rows[0][0].num_vars

    def rec(rowidx, cols):
        if len(cols) == 1:
            return rows[rowidx[0]][cols[0]]
        r = rowidx[0]
        total = LaurentPoly.zero(nv)
        sign = 1
        for p, j in enumerate(cols):
            e = rows[r][j]
            if e:
                sub = rec(rowidx[1:], cols[:p] + cols[p + 1 :])
                total = total + e * sub * sign
            sign = -sign
        return total

    return rec(tuple(range(n)), tuple(range(n)))


def det_fraction_free(rows):
    """Bareiss fraction-free determinant of polynomial rows; first nonzero
    pivot, exact divisions."""
    _require_square(rows)
    n = len(rows)
    nv = rows[0][0].num_vars
    work = [list(row) for row in rows]
    sign = 1
    prev = LaurentPoly.const(nv, 1)
    for k in range(n - 1):
        if not work[k][k]:
            for r in range(k + 1, n):
                if work[r][k]:
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


def det_minor_expansion(rows):
    """Division-free determinant of polynomial rows: the full-height entry
    of their minor_table.  Cost grows with 2^n but each step multiplies a
    minor by a single matrix entry, which is where sparse symbolic entries
    win big over elimination."""
    _require_square(rows)
    full = tuple(range(1, len(rows) + 1))
    return minor_table(rows, full)[full]


def det_fractions(rows):
    """Determinant of a square nested list of rationals, as a Fraction.

    Elimination on primitive integer rows.  Each row is an integer row times
    an exact rational multiplier, a reduced (num, den) pair of ints.  The
    rows are the columns of the matrix, each cleared of denominators by its
    lcm; the transpose has the same determinant.  On the character grids a
    column is one value tuple and shares its denominators, and column J of
    M carries the row scales of A over J, so the columns clear to 0.4 to 0.7
    times the bits of the rows.  A step replaces every row below the pivot
    by pivot*x - a*y, divides out the gcd of the new row and moves it, over
    the pivot, into the row's multiplier.  The integer rows are the
    primitive parts of the Schur-complement rows, so no operand exceeds its
    integer Bareiss counterpart; on the verifiers' matrices, whose minors
    factor, they are up to ten times smaller.  The determinant is the signed
    product of the true pivots, multiplier times pivot."""
    _require_square(rows)
    n = len(rows)
    if n == 0:
        return Fraction(1)
    # each row of work is (multiplier numerator, denominator, integer row)
    work = [(1, scale, ints) for scale, ints in map(_cleared, zip(*rows))]
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


def det(rows):
    """Exact determinant of square rows: minor expansion on Laurent
    polynomial entries, primitive-row elimination on rational entries,
    whose value comes back as a Fraction."""
    _require_square(rows)
    if rows and isinstance(rows[0][0], LaurentPoly):
        return det_minor_expansion(rows)
    return det_fractions(rows)
