"""Sparse Laurent polynomials over the rationals, with half-integer exponents.

Coefficients are exact: Python ints where possible, fractions.Fraction
otherwise (the two mix freely; equal values compare and hash equal, so a
term dict never cares which representation a coefficient uses).

Exponents are stored in half-units: the stored integer is twice the
mathematical exponent, so x^(1/2) has stored exponent 1 and x^3 has stored
exponent 6.  This keeps square-root powers exact without ever touching
floating point.  All public APIs that take or return exponent vectors speak
stored half-units and say so.  The numeric characters use the same
half-units: their points are carried as the square roots of the
coordinates (compdet.sampling), so a stored exponent is an integer power of
a root there.

Internally a monomial is packed into a single Python int: one 16-bit field
per variable, holding the stored exponent plus EXP_BIAS = 2**14, with
variable 1 in the most significant field.  A stored exponent must lie in
[EXP_MIN, EXP_MAX] = [-2**14, 2**14 - 1]; pack_exponents raises DomainError
outside it.  So the top bit of every field, the guard bit, is clear in
every key, and a product of two keys cannot carry out of a field: the term
kernel (compdet._backend) raises DomainError when a product sets a guard
bit, that is when a product's exponent leaves the range.  Packing this way
makes monomial multiplication a single integer addition and makes integer
comparison of keys agree with lexicographic comparison of exponent vectors
(x1 before x2 before ...), which is what leading-term extraction needs.
"""

from fractions import Fraction
from functools import cache

from ._backend import add_terms, mul_terms, muladd_terms
from .errors import DomainError, InexactDivisionError, UsageError

FIELD_BITS = 16
FIELD_MASK = (1 << FIELD_BITS) - 1
EXP_BIAS = 1 << 14
# The packable stored exponents; a field holds at most 2 * EXP_BIAS - 1, so
# its top (guard) bit stays clear.
EXP_MIN = -EXP_BIAS
EXP_MAX = EXP_BIAS - 1


@cache
def unit_key(num_vars):
    """Packed key of the constant monomial (all exponents zero)."""
    return pack_exponents((0,) * num_vars)


def pack_exponents(exps2):
    """Pack a sequence of stored half-unit exponents into a monomial key."""
    key = 0
    for e in exps2:
        if not EXP_MIN <= e <= EXP_MAX:
            raise DomainError(f"stored exponent {e} out of packable range")
        key = (key << FIELD_BITS) | (e + EXP_BIAS)
    return key


def unpack_key(key, num_vars):
    """Inverse of pack_exponents; returns a tuple of stored half-units."""
    out = [0] * num_vars
    for i in range(num_vars - 1, -1, -1):
        out[i] = (key & FIELD_MASK) - EXP_BIAS
        key >>= FIELD_BITS
    return tuple(out)


def _coeff_div(a, b):
    """Exact coefficient quotient a/b, as int when integral."""
    if isinstance(a, int) and isinstance(b, int):
        q = Fraction(a, b)
    else:
        q = Fraction(a) / Fraction(b)
    return q.numerator if q.denominator == 1 else q


def _as_coeff(c):
    if isinstance(c, int):
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    raise UsageError(f"coefficient must be int or Fraction, got {type(c).__name__}")


def _factor_text(i, e2):
    """'*' and the factor of x_i at the nonzero stored exponent e2: x_i,
    x_i^e or x_i^(e/2)."""
    if e2 == 2:
        return f"*x{i}"
    if e2 % 2 == 0:
        return f"*x{i}^{e2 // 2}"
    return f"*x{i}^({e2}/2)"


def _halves(base, width):
    """The factor memos of the two halves of the field span [base, base +
    width), and the shift and mask that cut a span value into theirs."""
    half = width // 2
    shift = (width - half) * FIELD_BITS
    return (_FactorMemo(base, half), _FactorMemo(base + half, width - half),
            shift, (1 << shift) - 1)


class _FactorMemo(dict):
    """Maps the value of the field span [base, base + width) of a key to its
    factor text: '' when every exponent there is zero, else '*' before each
    nonzero factor.  A span of two or more fields fills a missing entry
    from the memos of its two halves, so each distinct one-field value is
    formatted once."""

    __slots__ = ("var", "halves")

    def __init__(self, base, width):
        super().__init__({unit_key(width): ""})
        self.var = base + 1
        self.halves = _halves(base, width) if width > 1 else None

    def __missing__(self, value):
        if self.halves is None:
            text = _factor_text(self.var, value - EXP_BIAS)
        else:
            hi, lo, shift, mask = self.halves
            text = hi[value >> shift] + lo[value & mask]
        self[value] = text
        return text


class LaurentPoly:
    """Immutable-by-convention sparse Laurent polynomial.

    Do not mutate the term dict of a poly you did not just build; all
    arithmetic returns fresh objects.
    """

    __slots__ = ("num_vars", "_terms")

    def __init__(self, num_vars, packed_terms=None):
        self.num_vars = num_vars
        self._terms = packed_terms if packed_terms is not None else {}

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, num_vars):
        return cls(num_vars)

    @classmethod
    def const(cls, num_vars, c):
        c = _as_coeff(Fraction(c) if not isinstance(c, (int, Fraction)) else c)
        if not c:
            return cls(num_vars)
        return cls(num_vars, {unit_key(num_vars): c})

    @classmethod
    def monomial(cls, num_vars, coeff, exps2):
        """coeff * x^(exps2/2) with exps2 a stored half-unit vector."""
        exps2 = tuple(exps2)
        if len(exps2) != num_vars:
            raise UsageError("exponent vector length != num_vars")
        c = _as_coeff(coeff)
        if not c:
            return cls(num_vars)
        return cls(num_vars, {pack_exponents(exps2): c})

    @classmethod
    def variable(cls, num_vars, i, exp2=2):
        """x_i^(exp2/2) for the 1-based variable index i (default x_i itself)."""
        if not 1 <= i <= num_vars:
            raise UsageError(f"variable index {i} outside 1..{num_vars}")
        exps = [0] * num_vars
        exps[i - 1] = exp2
        return cls.monomial(num_vars, 1, exps)

    # -- basic queries ----------------------------------------------------

    def __bool__(self):
        """False for the zero polynomial, as for a zero number."""
        return bool(self._terms)

    def terms(self):
        """Yield (stored-exponent tuple, coeff), leading term first."""
        n = self.num_vars
        for k in sorted(self._terms, reverse=True):
            yield unpack_key(k, n), self._terms[k]

    def leading_term(self):
        """(stored-exponent tuple, coeff) maximal in lex order, x1 heaviest."""
        if not self._terms:
            raise DomainError("zero polynomial has no leading term")
        k = max(self._terms)
        return unpack_key(k, self.num_vars), self._terms[k]

    def coefficient(self, exps2):
        return self._terms.get(pack_exponents(tuple(exps2)), 0)

    # -- ring operations ---------------------------------------------------

    def _check_ring(self, other):
        if self.num_vars != other.num_vars:
            raise UsageError(
                f"mixed rings: {self.num_vars} vs {other.num_vars} variables"
            )

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(self.num_vars, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check_ring(other)
        acc = dict(self._terms)
        add_terms(acc, other._terms, 1)
        return LaurentPoly(self.num_vars, acc)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(self.num_vars, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check_ring(other)
        acc = dict(self._terms)
        add_terms(acc, other._terms, -1)
        return LaurentPoly(self.num_vars, acc)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return LaurentPoly(self.num_vars, {k: -c for k, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _as_coeff(other)
            if not c:
                return LaurentPoly(self.num_vars)
            return LaurentPoly(
                self.num_vars, {k: v * c for k, v in self._terms.items()}
            )
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check_ring(other)
        return LaurentPoly(
            self.num_vars,
            mul_terms(self._terms, other._terms, unit_key(self.num_vars)),
        )

    __rmul__ = __mul__

    def __pow__(self, e):
        if not isinstance(e, int) or e < 0:
            raise UsageError("polynomial powers must be non-negative integers")
        result = LaurentPoly.const(self.num_vars, 1)
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def substitute(self, i, image):
        """The polynomial with each power x_i^(e2/2) of the 1-based
        variable i replaced by image(e2), a polynomial of the same ring
        (which may hold x_i again).  The terms are grouped by their stored
        exponent of x_i, that power is stripped from their keys, and each
        group is multiplied by its image in one kernel call."""
        n = self.num_vars
        if not 1 <= i <= n:
            raise UsageError(f"variable index {i} outside 1..{n}")
        shift = (n - i) * FIELD_BITS
        groups = {}
        for k, c in self._terms.items():
            e2 = ((k >> shift) & FIELD_MASK) - EXP_BIAS
            groups.setdefault(e2, {})[k - (e2 << shift)] = c
        unit = unit_key(n)
        acc = {}
        for e2, group in groups.items():
            other = image(e2)
            self._check_ring(other)
            muladd_terms(acc, group, other._terms, unit, 1)
        return LaurentPoly(n, acc)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(self.num_vars, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.num_vars == other.num_vars and self._terms == other._terms

    __hash__ = None  # term dicts are conventionally mutable during builds

    # -- exact division ------------------------------------------------------

    def exquo(self, divisor):
        """Exact quotient self / divisor; raises InexactDivisionError else.

        Both operands may be genuinely Laurent: each is first normalized by
        its per-variable minimum exponent (a monomial, hence a unit), after
        which ordinary lexicographic long division by the single divisor
        either terminates with remainder zero or provably detects that the
        division is not exact.
        """
        if not isinstance(divisor, LaurentPoly):
            raise UsageError("divisor must be a LaurentPoly")
        self._check_ring(divisor)
        if not divisor:
            raise ZeroDivisionError("exact division by the zero polynomial")
        if not self:
            return LaurentPoly(self.num_vars)
        n = self.num_vars
        unit = unit_key(n)

        def raw_min_offset(terms):
            mins = None
            for k in terms:
                exps = unpack_key(k, n)
                if mins is None:
                    mins = list(exps)
                else:
                    for i, e in enumerate(exps):
                        if e < mins[i]:
                            mins[i] = e
            # unbiased shift-accumulate; subtracting this from a packed key
            # shifts every field by the per-variable minimum
            off = 0
            for e in mins or []:
                off = (off << FIELD_BITS) + e
            return off

        off_r = raw_min_offset(self._terms)
        off_d = raw_min_offset(divisor._terms)
        r = {k - off_r: c for k, c in self._terms.items()}
        d = {k - off_d: c for k, c in divisor._terms.items()}
        kd = max(d)
        cd = d[kd]
        ed = unpack_key(kd, n)
        quotient = {}
        while r:
            kr = max(r)
            er = unpack_key(kr, n)
            eq = tuple(a - b for a, b in zip(er, ed))
            if any(e < 0 for e in eq):
                raise InexactDivisionError("division left a remainder")
            cq = _coeff_div(r[kr], cd)
            kq = pack_exponents(eq)
            quotient[kq] = cq
            muladd_terms(r, {kq: 1}, d, unit, -cq)
        shift = off_r - off_d
        return LaurentPoly(n, {k + shift: c for k, c in quotient.items()})

    # -- rendering -----------------------------------------------------------

    def canonical(self):
        """Canonical text form: terms in descending lex order, exact coeffs.

        This string is the hashing and golden-file representation; its
        format is frozen by tests.  Each key is cut into its two half-spans
        of fields, and the factor text of a half value comes from a memo
        built once per call (_FactorMemo), so a term costs two dict hits
        and each distinct one-field value is formatted once.
        """
        terms = self._terms
        if not terms:
            return "0"
        hi, lo, shift, mask = _halves(0, self.num_vars)
        out = []
        for k in sorted(terms, reverse=True):
            body = hi[k >> shift] + lo[k & mask]
            c = terms[k]
            if c < 0:
                out.append(" - ")
                c = -c
            else:
                out.append(" + ")
            if not body:
                out.append(str(c))
            elif c == 1:
                out.append(body[1:])
            else:
                out.append(str(c) + body)
        out[0] = "-" if out[0] == " - " else ""
        return "".join(out)

    def __repr__(self):
        body = self.canonical()
        if len(body) > 120:
            body = body[:117] + "..."
        return f"LaurentPoly[{self.num_vars}]({body})"
