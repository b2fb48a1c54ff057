"""Matrices as lists of rows, and exact determinants.

A matrix is a list of equal-length rows.  Its entries are either Laurent
polynomials in one ring (symbolic mode) or rationals, ints and Fractions
(numeric mode).  `det`, `minor_table` and `products` pick their
arithmetic by the type of the first entry.

`det` is the determinant of a whole square matrix: a compound check's
matrix of minors (the compound matrix M, the n-th compound) and the
character and macdonald grids:

* rational entries go to det_fractions, elimination on primitive integer
  rows: each column is cleared of denominators by its lcm (det A^T = det A,
  so the columns are eliminated as rows), and after every step the gcd of
  each new row is divided out into the row's multiplier, a Fraction in
  lowest terms.
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
every minor on a column set, each smaller minor once.  Only minor_matrix
and det_minor_expansion call it.  The empty column set gives the 0x0
minor, the ring's one.  Polynomial rows accumulate each minor in one term
dict.  Rational rows run on integers: each row is cleared by its lcm over
the column set, and each minor is one Fraction, the integer value over
the product of its rows' scales.
`minor_matrix` is the one builder of a matrix of minors, and the one
place that picks how a minor is computed: the compound matrix M, the
n-th compound of a square matrix, the signed complementary minors of
compound.vec_Vbar, the maximal minors of a compound check's matrix A
(sylvester's det A among them), and every numerator and denominator
alternant of a character grid.  A table of height h over R rows holds
every row subset up to h, about 2^R entries near full height, where
elimination is cubic, so minor_matrix eliminates the minors of rational
rows on a column set when that counts fewer steps than its table.
`products` clears each rational column by its lcm once, so each inner
product is one integer sum over two scales; a polynomial inner product
accumulates in one term dict.

Row/column index sets at the public surface are 1-based sorted tuples, the
same convention the combinatorial maps use.
"""

from fractions import Fraction
from itertools import combinations
from math import comb, gcd, lcm, prod
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


def minor_table(rows, colset):
    """Every minor on one column set: {I: det rows^I_colset} over the
    1-based row sets I with len(colset) elements, keyed by sorted tuples.

    Laplace expansion along the columns: level k holds every k-row minor
    of the first k columns, each a signed sum of entries of column k times
    minors of level k-1, so every smaller minor is computed once.  Rational
    rows are first cleared of denominators by their lcm over colset, the
    expansion runs on ints, and each minor is divided by the product of its
    rows' scales.  Polynomial rows accumulate each minor in one term dict.
    The empty column set gives {(): one}, the 0x0 minor in the ring of
    the rows.  colset must be strictly increasing, in range, and no longer
    than the number of rows."""
    colset = _column_set(rows, colset)
    height = len(colset)
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
    row_sets].

    Each column set J of height h takes one route.  On rational rows, when
    the wanted minors' len(row_sets) * h^3 elimination steps are fewer than
    the sum over j <= h of C(R, j) * j entry products of a table over the R
    rows, each minor is det_fractions of its h x h submatrix.  Otherwise,
    and always on polynomial rows, the column is read off one minor_table.
    Every column set is checked as minor_table checks it, and every row set
    must hold h strictly increasing indices in 1..R, on both routes."""
    col_sets = [_column_set(rows, J) for J in col_sets]
    row_sets = [_index_set(I, len(rows)) for I in row_sets]
    heights = {len(J) for J in col_sets}
    if any(len(I) != h for I in row_sets for h in heights):
        raise UsageError("row and column sets must have the same size")
    columns = []
    for J in col_sets:
        if isinstance(rows[0][0], LaurentPoly) or not _eliminates(
            len(rows), len(row_sets), len(J)
        ):
            table = minor_table(rows, J)
            columns.append([table[I] for I in row_sets])
        else:
            columns.append([
                det_fractions([[rows[i - 1][j - 1] for j in J] for i in I]) for I in row_sets
            ])
    return [[column[r] for column in columns] for r in range(len(row_sets))]


def _eliminates(nrows, wanted, height):
    """True when the wanted minors on a column set of this height cost
    fewer elimination steps, wanted * height^3, than the entry products of
    its minor table over nrows rows."""
    return wanted * height**3 < sum(comb(nrows, j) * j for j in range(1, height + 1))


def _index_set(indices, bound):
    """indices as a tuple, refused unless strictly increasing in 1..bound."""
    indices = tuple(indices)
    if indices != tuple(sorted(set(indices))):
        raise UsageError("index sets must be strictly increasing")
    if indices and (indices[0] < 1 or indices[-1] > bound):
        raise UsageError("index out of range")
    return indices


def _column_set(rows, colset):
    """colset as a tuple, refused unless strictly increasing, in range and
    no longer than the number of rows."""
    colset = _index_set(colset, len(rows[0]) if rows else 0)
    if len(colset) > len(rows):
        raise UsageError("index out of range")
    return colset


def products(xcols, ycols):
    """The matrix of inner products, sum(a * b for a, b in zip(x, y)) at
    row x of xcols and column y of ycols.  Polynomial cells accumulate in
    one term dict each.  Rational columns are cleared of denominators by
    their lcm once, so each cell is one integer sum of products over the
    two columns' scales."""
    if xcols and xcols[0] and isinstance(xcols[0][0], LaurentPoly):
        nv = xcols[0][0].num_vars
        unit = unit_key(nv)

        def cell(x, y):
            acc = {}
            for a, b in zip(x, y):
                if a._terms and b._terms:
                    muladd_terms(acc, a._terms, b._terms, unit, 1)
            return LaurentPoly(nv, acc)

        return [[cell(x, y) for y in ycols] for x in xcols]
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
    win big over elimination.  A 1x1 matrix gives its entry itself."""
    _require_square(rows)
    if len(rows) == 1:
        return rows[0][0]
    full = tuple(range(1, len(rows) + 1))
    return minor_table(rows, full)[full]


def det_fractions(rows):
    """Determinant of a square nested list of rationals, as a Fraction.

    Elimination on primitive integer rows.  Each row is an integer row times
    an exact rational multiplier, a Fraction.  The
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
    # each row of work is (rational multiplier, primitive integer row)
    work = [(Fraction(1, scale), ints) for scale, ints in map(_cleared, zip(*rows))]
    value = Fraction(1)
    # each step eliminates the leading column of the shrinking working block
    while work:
        r = next((r for r, (_, row) in enumerate(work) if row[0]), None)
        if r is None:
            return Fraction(0)
        if r:
            work[0], work[r] = work[r], work[0]
            value = -value
        top_mult, top = work.pop(0)
        pivot = top[0]
        rest = top[1:]
        value *= top_mult * pivot
        for i, (m, row) in enumerate(work):
            a = row[0]
            if not a:
                work[i] = (m, row[1:])
                continue
            new = [pivot * x - a * y for x, y in zip(row[1:], rest)]
            g = gcd(*new)
            if not g:
                return Fraction(0)
            if g != 1:
                new = [v // g for v in new]
            work[i] = (m * g / pivot, new)
    return value


def det(rows):
    """Exact determinant of square rows: minor expansion on Laurent
    polynomial entries, primitive-row elimination on rational entries,
    whose value comes back as a Fraction."""
    _require_square(rows)
    if rows and isinstance(rows[0][0], LaurentPoly):
        return det_minor_expansion(rows)
    return det_fractions(rows)
