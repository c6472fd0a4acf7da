"""Exact sparse multivariate polynomial arithmetic over Q and prime fields.

A polynomial is a dict mapping packed monomials to nonzero coefficients.
In the rational mode a non-integral coefficient is a ``fractions.Fraction``
and an integral one is an ``int`` or a ``Fraction(n, 1)``: sums and
products keep whatever type Python's arithmetic gives, and only the
parser, ``from_terms`` and the field's ``coerce`` and ``div`` make it an
``int``.  The two print, compare and hash alike, so no output depends on
which one a term holds, and ``Poly`` construction does not normalize them.
Q's own ``zero`` and ``one`` are the ints 0 and 1.
Over a prime field GF(p) every coefficient and scalar is a plain ``int``
in 0 .. p - 1.  The ring operations work on unreduced ints and ``Poly``
construction reduces each coefficient once; a scalar computed outside the
kernel goes through the field's ``coerce`` or ``div`` before it is
compared or truth-tested.  Since ``int / int`` is a float, coefficients are
divided only through the field's ``div``, never with ``/``.  All arithmetic
is exact; there is no floating point anywhere in this package.

An ``int`` or ``Fraction`` operand of ``+``, ``-``, ``*`` or ``==`` is
coerced into the field and acts on the term dict directly: no constant
``Poly`` is built and no product loop runs, so a scalar multiple is one
pass over the terms.  A difference ``F - G`` or ``c - F`` is one pass into
one dict, with no negated temporary.  Each operation builds one ``Poly``,
its result, with the same terms, types and order as the route through a
constant and a negation.  The term dict is internal to this module:
other modules read a polynomial only through ``Poly.coefficient``,
``Poly.homogeneous_components``, ``Poly.partial``,
``Poly.directional_derivative``, ``Poly.evaluate``,
``Poly.line_coefficients``, ``Poly.polar_part``, ``Poly.substitute``,
``Poly.divide_variables`` and ``Poly.sorted_terms``, and build one from
terms only through ``PolyRing.monomial`` and ``PolyRing.from_terms``,
which speak in exponent tuples.  ``coefficients_in`` serves ``resultant`` here.

Graded pieces come in one format: ``homogeneous_components`` and
``coefficients_in`` return ``{degree: Poly}`` holding the nonzero parts
only, in ascending degree, built in one pass over the terms, so their cost
follows the number of terms and not the degree; ``polar_part`` returns
its one part, k! times the degree-k part of F(a + x), as a ``Poly``; and
``substitute`` given an ``order`` builds only the terms of degree <= order.
Powers take one route: ``__pow__`` and ``substitute``, with an ``order`` or
without, read them from ``_CutPowers``, which splits each value into its
least-degree term h and the rest R and expands (h + R)^e by one binomial
row over the powers of R, h^(e - j) being one term.

A monomial x_1^e_1 ... x_n^e_n is packed into one int of n 32-bit fields
that hold, from the bottom, the prefix sums e_1, e_1 + e_2, ...,
e_1 + ... + e_n; the top field is the total degree.  Keys add under
multiplication, and plain int order is the graded reverse lexicographic
order, so sorting and the leading term need no key function.  Every field
is at most the total degree, so a monomial's total degree is capped at
``MAX_DEGREE`` = 2^32 - 1: building a monomial or a product past it raises
DomainError.  Exponent tuples are packed and unpacked only at the kernel's
edges: ``monomial``, ``from_terms`` and ``coefficient`` in (each tuple
checked as it is packed, in one loop), ``sorted_terms`` and ``substitute``
out.  Printing builds no tuple: it reads each exponent off the packed key
as the difference of two prefix sums, in the one pass that writes the term.

The kernel provides, besides the ring operations:

* a parser for a small expression grammar
  (``term ::= coeff | coeff '*' mono | mono``,
  ``mono ::= var('^'nat)? ('*' var('^'nat)?)*``,
  ``coeff ::= int | int '/' nat``, terms separated by ``+`` / ``-``,
  whitespace ignored, default variables ``x y z w`` with aliases
  ``x0..x3``); one pass over the tokens adds each term's coefficient into a
  single dict under its packed monomial, so like terms combine and ``x*x``
  is ``x^2``, and builds one ``Poly`` at the end,
* determinants of polynomial matrices: for size <= 4 a division-free
  Laplace expansion whose minors are shared (the minors of the bottom k
  rows are keyed by their column bitmask and built upward one row at a
  time, each summed in place into one term dict, so no ``Poly`` product,
  sum or negation runs), fraction-free Bareiss elimination above that,
  each update m_ij m_kk - m_ik m_kj summed in place into one term dict the
  same way, with an ``exact_div`` that updates one remainder dict in place,
* Sylvester resultants of polynomials taken univariately in one chosen
  variable, with the remaining variables as coefficient parameters,
* valuations of univariate polynomials (order of vanishing at 0), with
  ``INFINITY`` for the zero polynomial.

Values are immutable after construction and every operation is a pure
function, so everything here may be shared freely between threads.

No Groebner machinery: the graded reverse lexicographic order is used only
for canonical printing and for the exact-division loop inside Bareiss
elimination.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Mapping, Sequence, Union

INFINITY = math.inf

DEFAULT_VARIABLES = ("x", "y", "z", "w")
VARIABLE_ALIASES = {"x0": "x", "x1": "y", "x2": "z", "x3": "w"}


class ParseError(ValueError):
    """Syntax error in a polynomial expression; carries the offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DomainError(ValueError):
    """A precondition on mathematical input is violated."""


# ---------------------------------------------------------------------------
# coefficient fields
# ---------------------------------------------------------------------------


def _is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Rationals:
    """The field Q: integral values are ``int``, the others ``Fraction``."""

    name = "QQ"
    p = None  # no modulus: ``Poly`` construction reduces nothing

    # Ints, like every integral value: frames, pivots and absent
    # coefficients built from them stay ints.  Quotients of scalars go
    # through ``div``, never ``/`` (an int quotient would be a float).
    zero = 0
    one = 1

    def coerce(self, v) -> Union[int, Fraction]:
        if type(v) is int:
            return v
        if isinstance(v, Fraction):
            return v.numerator if v.denominator == 1 else v
        if isinstance(v, int):
            return int(v)
        raise DomainError(f"cannot coerce {v!r} into Q")

    def div(self, a, b) -> Union[int, Fraction]:
        """Exact quotient a / b, an ``int`` when it is integral."""
        if type(a) is int and type(b) is int and b and not a % b:
            return a // b
        return self.coerce(Fraction(a, b))

    def is_square(self, v) -> bool:
        v = self.coerce(v)
        if v < 0:
            return False
        n, d = v.numerator, v.denominator
        return math.isqrt(n) ** 2 == n and math.isqrt(d) ** 2 == d

    def sqrt(self, v) -> Union[int, Fraction]:
        v = self.coerce(v)
        if not self.is_square(v):
            raise DomainError(f"{v} is not a square in Q")
        return self.div(math.isqrt(v.numerator), math.isqrt(v.denominator))

    def random(self, rng) -> int:
        return rng.randint(-9, 9)

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """The field Z/p for a prime p; values are ints in 0 .. p - 1."""

    zero = 0
    one = 1

    def __init__(self, p: int):
        if not _is_probable_prime(p):
            raise DomainError(f"{p} is not prime")
        if p == 2:
            raise DomainError("p = 2 is not supported (square roots degenerate)")
        self.p = p
        self.name = f"GF({p})"

    def coerce(self, v) -> int:
        if isinstance(v, int):
            return v % self.p
        if isinstance(v, Fraction):
            if v.denominator % self.p == 0:
                raise DomainError("denominator divisible by the modulus")
            return v.numerator * pow(v.denominator, -1, self.p) % self.p
        raise DomainError(f"cannot coerce {v!r} into GF({self.p})")

    def div(self, a, b) -> int:
        """Quotient a / b of residues."""
        b = self.coerce(b)
        if not b:
            raise ZeroDivisionError("division by zero residue")
        return self.coerce(a) * pow(b, -1, self.p) % self.p

    def is_square(self, v) -> bool:
        v = self.coerce(v)
        if v == 0:
            return True
        return pow(v, (self.p - 1) // 2, self.p) == 1

    def sqrt(self, v) -> int:
        # Tonelli-Shanks.
        v = self.coerce(v)
        p = self.p
        if v == 0:
            return 0
        if not self.is_square(v):
            raise DomainError(f"{v} is not a square mod {p}")
        if p % 4 == 3:
            return pow(v, (p + 1) // 4, p)
        q, s = p - 1, 0
        while q % 2 == 0:
            q //= 2
            s += 1
        z = 2
        while pow(z, (p - 1) // 2, p) != p - 1:
            z += 1
        m, c, t, r = s, pow(z, q, p), pow(v, q, p), pow(v, (q + 1) // 2, p)
        while t != 1:
            t2, i = t * t % p, 1
            while t2 != 1:
                t2 = t2 * t2 % p
                i += 1
            b = pow(c, 1 << (m - i - 1), p)
            m, c = i, b * b % p
            t, r = t * c % p, r * b % p
        return r

    def random(self, rng) -> int:
        return rng.randint(0, self.p - 1)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return self.name


QQ = Rationals()


# ---------------------------------------------------------------------------
# the polynomial ring
# ---------------------------------------------------------------------------

Exponents = tuple
Scalar = Union[int, Fraction]

_FIELD_BITS = 32
_FIELD_MASK = (1 << _FIELD_BITS) - 1
MAX_DEGREE = _FIELD_MASK


def _check_product_degree(degree: int):
    if degree > MAX_DEGREE:
        raise DomainError(f"product of total degree {degree} exceeds the limit 2^32 - 1")


def _product(left: dict, right: dict, out: dict = None) -> dict:
    """The product of two term dicts, unreduced, with cancelled sums left in.

    Given ``out``, the product is summed into it in place and ``out`` is
    returned.  Below the degree limit no field carries, so a product's key
    is the sum.
    """
    if out is None:
        out = {}
    get = out.get
    right = list(right.items())
    for ka, ca in left.items():
        for kb, cb in right:
            k = ka + kb
            s = get(k)
            out[k] = ca * cb if s is None else s + ca * cb
    return out


def _product_upto(left: dict, right: dict, top: int, shift: int) -> dict:
    """The terms of degree <= top of the product of two term dicts, unreduced.

    Keys in ascending order ascend in degree, so each left term walks the
    sorted right terms only up to the first one that would pass top: the
    pairs above top are never formed, and no key sum passes top, so no
    field carries.
    """
    right = sorted(right.items())
    out: dict = {}
    get = out.get
    for ka, ca in left.items():
        bound = (top - (ka >> shift) + 1) << shift
        for kb, cb in right:
            if kb >= bound:
                break
            k = ka + kb
            s = get(k)
            out[k] = ca * cb if s is None else s + ca * cb
    return out


def _sum_into(out: dict, terms: dict, negate: bool) -> dict:
    """out + terms (out - terms when negate), summed into out in place.

    A sum that cancels to exactly zero leaves the dict; over GF(p) the
    unreduced sums stay for ``Poly`` construction to reduce.  A difference
    is subtracted term by term, not added negated, so a Fraction term costs
    one Fraction, not two.
    """
    get, pop = out.get, out.pop
    if negate:
        for k, c in terms.items():
            s = get(k)
            s = -c if s is None else s - c
            if s:
                out[k] = s
            else:
                pop(k)
    else:
        for k, c in terms.items():
            s = get(k)
            s = c if s is None else s + c
            if s:
                out[k] = s
            else:
                pop(k)
    return out


def _binomial_row(x, y, e: int, p, stop: int) -> list:
    """[C(e, j) x^(e - j) y^j for j < stop]: the leading coefficients of
    (x + y T)^e, reduced over GF(p) (p not None).  Each binomial comes from
    the one before by one product and one exact quotient."""
    row, binomial = [], 1
    for j in range(stop):
        row.append(binomial * pow(x, e - j, p) * pow(y, j, p))
        binomial = binomial * (e - j) // (j + 1)
    return row if p is None else [v % p for v in row]


class _CutPowers:
    """The powers of one value, cut at degree top, each built once: the
    kernel's one power route, read by ``Poly.__pow__`` and ``substitute``.

    With h the value's term of least degree (its least key, so its constant
    term when it has one) and R the rest, (h + R)^e is the sum over j of
    C(e, j) h^(e - j) R^j.  h^(e - j) is one term, its key times e - j, and
    term j has no monomial below e deg h + j (least degree of R - deg h),
    so the binomial row stops at the first j that puts that past top; each
    R^j is built once, cut at top, from R^(j - 1), for every exponent, and
    a shifted term is kept only up to top.
    """

    def __init__(self, value: "Poly", top: int):
        ring = value.ring
        shift = ring._degree_shift
        self.ring, self.top, self.shift = ring, top, shift
        terms = {k: c for k, c in value.terms.items() if k >> shift <= top}
        self.head = head = min(terms) if terms else 0  # the key of h
        self.coeff = terms.get(head, 0)  # of h
        self.rest = {k: c for k, c in terms.items() if k != head}  # R
        self.low = head >> shift if terms else top + 1  # deg h, past top for 0
        # Each factor R raises a term of the row at least this far above h.
        self.lift = (min(self.rest) >> shift) - self.low if self.rest else top + 1
        self.high = max(value.terms) >> shift if value.terms else 0  # of the value
        self.bound = (top + 1) << shift  # the least key past top
        self.ladder = [{0: 1}, self.rest]  # ladder[j]: R^j cut at top, reduced
        self.memo = {0: {0: 1}, 1: terms}

    def __call__(self, e: int) -> dict:
        out = self.memo.get(e)
        if out is None:
            ladder, head = self.ladder, self.head
            room = self.top - e * self.low  # h^e is the least term of the power
            stop = min(e, room // self.lift) + 1 if self.lift else e + 1
            while len(ladder) < stop:
                rung = _product_upto(ladder[-1], self.rest, self.top, self.shift)
                ladder.append(Poly(self.ring, rung).terms)
            out, bound, key = {}, self.bound, head * e
            get = out.get
            for b, rung in zip(_binomial_row(self.coeff, 1, e, self.ring._modulus, stop), ladder):
                for k, c in rung.items():  # h^(e - j) R^j, up to top
                    k += key
                    if k < bound:
                        s = get(k)
                        out[k] = b * c if s is None else s + b * c
                key -= head
            out = self.memo[e] = Poly(self.ring, out).terms
        return out


def _decimal(n: int) -> str:
    """n in decimal, or its digit count when n is past Python's int-to-str cap."""
    try:
        return str(n)
    except ValueError:
        digits = (n.bit_length() - 1) * 1233 >> 12  # 1233 / 4096 < log10(2): a lower bound
        while 10 ** digits <= n:
            digits += 1
        return f"({digits} digits)"


class PolyRing:
    """A polynomial ring: an ordered variable tuple over a coefficient field."""

    def __init__(self, variables: Sequence[str] = DEFAULT_VARIABLES, field=QQ):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise DomainError("duplicate variable names")
        self.variables = variables
        self.field = field
        self._modulus = field.p  # cached: every Poly construction reads it
        self._index = {v: i for i, v in enumerate(variables)}
        # Bit offset of each prefix-sum field; the top one is the total degree.
        self._shifts = tuple(range(0, _FIELD_BITS * len(variables), _FIELD_BITS))
        self._degree_shift = self._shifts[-1] if variables else 0
        # The packed key of each variable: one added to its field and every field above.
        self._var_keys = tuple(sum(1 << s for s in self._shifts[i:]) for i in range(len(variables)))

    # -- the packed monomial layout ----------------------------------------

    def _pack(self, exps: Sequence[int]) -> int:
        """The packed key of an exponent sequence of ints, checked as it is packed."""
        if len(exps) != len(self._shifts):
            raise DomainError("bad exponent tuple")
        key = total = 0
        for shift, e in zip(self._shifts, exps):
            if e < 0:
                raise DomainError("bad exponent tuple")
            total += e
            key |= total << shift
        if total > MAX_DEGREE:
            raise DomainError(
                f"monomial of total degree {_decimal(total)} exceeds the limit 2^32 - 1"
            )
        return key

    def _unpack(self, key: int) -> Exponents:
        exps, below = [], 0
        for shift in self._shifts:
            total = key >> shift & _FIELD_MASK
            exps.append(total - below)
            below = total
        return tuple(exps)

    def _exponent(self, key: int, i: int) -> int:
        """The exponent of variable i in a packed monomial."""
        total = key >> self._shifts[i] & _FIELD_MASK
        return total - (key >> self._shifts[i - 1] & _FIELD_MASK) if i else total

    # -- constructors ------------------------------------------------------

    def zero(self) -> "Poly":
        return Poly(self, {})

    def one(self) -> "Poly":
        return self.const(1)

    def const(self, c) -> "Poly":
        c = self.field.coerce(c)
        if not c:
            return Poly(self, {})
        return Poly(self, {0: c})

    def var(self, name: str) -> "Poly":
        if name not in self._index:
            raise DomainError(f"unknown variable {name!r}")
        return Poly(self, {self._var_keys[self._index[name]]: self.field.coerce(1)})

    def gens(self) -> tuple:
        return tuple(self.var(v) for v in self.variables)

    def monomial(self, exps: Sequence[int], coeff=1) -> "Poly":
        key = self._pack(exps)
        c = self.field.coerce(coeff)
        return Poly(self, {key: c} if c else {})

    def from_terms(self, pairs) -> "Poly":
        """The sum of coeff * x^exps over (exponent tuple, coeff) pairs, built in one dict.

        Like terms combine and a sum that cancels leaves the dict, so the
        result equals, term order included, adding the ``monomial``s in turn.
        """
        pack, coerce, p = self._pack, self.field.coerce, self._modulus
        out: dict = {}
        for exps, c in pairs:
            key, c = pack(exps), coerce(c)
            s = out.get(key)
            if s is not None:  # reduced over GF(p), so that a sum that cancels reads 0
                c = s + c if p is None else (s + c) % p
            if c:
                out[key] = c
            else:
                out.pop(key, None)
        return Poly(self, out)

    def point(self, coords: Sequence) -> "ProjPoint":
        return ProjPoint(coords, self.field)

    def parse(self, text: str) -> "Poly":
        return _parse(text, self)

    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and other.variables == self.variables
            and other.field == self.field
        )

    def __hash__(self):
        return hash((self.variables, self.field))

    def __repr__(self):
        return f"{self.field.name}[{', '.join(self.variables)}]"


class Poly:
    """Immutable sparse polynomial attached to a PolyRing.

    ``terms`` maps packed monomials (see the module docstring) to nonzero
    coefficients, reduced into 1 .. p - 1 over GF(p); the zero polynomial
    is the empty dict (it is a legal value, but degree queries on it raise
    DomainError).  Every monomial has total degree at most ``MAX_DEGREE`` =
    2^32 - 1.  The dict is internal to the kernel: outside this module use
    ``coefficient``, ``homogeneous_components``, ``partial``,
    ``directional_derivative``, ``evaluate``, ``line_coefficients``,
    ``polar_part``, ``substitute``, ``divide_variables`` and
    ``sorted_terms``; of these, ``coefficient`` and ``sorted_terms`` speak
    in exponent tuples.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: Mapping[int, Scalar]):
        self.ring = ring
        p = ring._modulus
        if p is None:
            self.terms = {e: c for e, c in terms.items() if c}
        else:
            self.terms = {e: r for e, c in terms.items() if (r := c % p)}

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        if self.is_zero:
            raise DomainError("degree of the zero polynomial is undefined")
        return max(self.terms) >> self.ring._degree_shift

    def is_homogeneous(self) -> bool:
        if self.is_zero:
            return True
        shift = self.ring._degree_shift
        return len({k >> shift for k in self.terms}) == 1

    def homogeneous_components(self) -> dict:
        """{k: part of degree k} for the nonzero parts, in ascending k; {} for 0."""
        shift = self.ring._degree_shift
        parts: dict = {}
        for k, c in self.terms.items():
            parts.setdefault(k >> shift, {})[k] = c
        return {d: Poly(self.ring, parts[d]) for d in sorted(parts)}

    def degree_in(self, var: str) -> int:
        i = self.ring._index[var]
        if self.is_zero:
            raise DomainError("degree of the zero polynomial is undefined")
        exponent = self.ring._exponent
        return max(exponent(k, i) for k in self.terms)

    def variables_used(self) -> tuple:
        used = [False] * len(self.ring.variables)
        for k in self.terms:
            for i, e in enumerate(self.ring._unpack(k)):
                if e:
                    used[i] = True
        return tuple(v for v, u in zip(self.ring.variables, used) if u)

    def coefficient(self, exps: Sequence[int]):
        return self.terms.get(self.ring._pack(exps), self.ring.field.zero)

    def constant_value(self):
        if self.is_zero:
            return self.ring.field.zero
        if self.total_degree() > 0:
            raise DomainError("polynomial is not constant")
        return next(iter(self.terms.values()))

    # -- arithmetic --------------------------------------------------------

    def _operand(self, other):
        """The term dict of a Poly of this ring, or of an int or Fraction as a
        constant (coerced into the field, no Poly built); None otherwise."""
        if isinstance(other, Poly):
            if other.ring is not self.ring and other.ring != self.ring:
                raise DomainError(
                    f"mismatched rings: {self.ring!r} vs {other.ring!r}"
                )
            return other.terms
        if isinstance(other, (int, Fraction)):
            c = self.ring.field.coerce(other)
            return {0: c} if c else {}
        return None

    def __add__(self, other):
        terms = self._operand(other)
        if terms is None:
            return NotImplemented
        return Poly(self.ring, _sum_into(dict(self.terms), terms, False))

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        terms = self._operand(other)
        if terms is None:
            return NotImplemented
        return Poly(self.ring, _sum_into(dict(self.terms), terms, True))

    def __rsub__(self, other):
        terms = self._operand(other)
        if terms is None:
            return NotImplemented
        return Poly(self.ring, _sum_into(dict(terms), self.terms, True))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = self.ring.field.coerce(other)
            return Poly(self.ring, {e: v * c for e, v in self.terms.items()})
        terms = self._operand(other)
        if terms is None:
            return NotImplemented
        if self.terms and terms:
            shift = self.ring._degree_shift
            _check_product_degree((max(self.terms) >> shift) + (max(terms) >> shift))
        # Terms that cancelled to zero are dropped by the constructor.
        return Poly(self.ring, _product(self.terms, terms))

    __rmul__ = __mul__

    def __truediv__(self, other):
        # Exact division by a nonzero scalar.
        if isinstance(other, Poly):
            other = other.constant_value()
        field = self.ring.field
        c = field.coerce(other)
        if not c:
            raise ZeroDivisionError("division by zero scalar")
        return Poly(self.ring, {e: field.div(v, c) for e, v in self.terms.items()})

    def __pow__(self, e: int):
        """self^e (e >= 0) from the one power route, ``_CutPowers``; past
        ``MAX_DEGREE`` it raises DomainError before any product is formed."""
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            raise DomainError("negative polynomial power")
        top = e * (max(self.terms) >> self.ring._degree_shift) if self.terms else 0
        _check_product_degree(top)
        return Poly(self.ring, _CutPowers(self, top)(e))

    def __eq__(self, other):
        if isinstance(other, Poly):
            return (self.ring is other.ring or self.ring == other.ring) and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.terms == self._operand(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    # -- calculus ----------------------------------------------------------

    def partial(self, var: str) -> "Poly":
        ring = self.ring
        i = ring._index[var]
        step = ring._var_keys[i]
        out: dict = {}
        for k, c in self.terms.items():
            e = ring._exponent(k, i)
            if e:
                out[k - step] = c * e
        return Poly(ring, out)

    def directional_derivative(self, coords: Sequence) -> "Poly":
        """sum_i coords[i] * dF/dx_i in one pass over the terms and one dict."""
        ring = self.ring
        coords = [ring.field.coerce(a) for a in coords]
        if len(coords) != len(ring.variables):
            raise DomainError("wrong number of coordinates")
        fields = list(zip(ring._shifts, ring._var_keys, coords))
        out: dict = {}
        get = out.get
        for k, c in self.terms.items():
            below = 0
            for shift, step, a in fields:
                total = k >> shift & _FIELD_MASK
                e = total - below
                below = total
                if e and a:
                    key = k - step
                    s = get(key)
                    out[key] = c * e * a if s is None else s + c * e * a
        # Reduced once here over GF(p); cancelled terms are dropped.
        return Poly(ring, out)

    def evaluate(self, coords: Sequence):
        """Value at a scalar tuple (one entry per ring variable)."""
        ring = self.ring
        field, p = ring.field, ring._modulus
        coords = [field.coerce(c) for c in coords]
        if len(coords) != len(ring.variables):
            raise DomainError("wrong number of coordinates")
        fields = list(zip(ring._shifts, coords))
        total = 0
        for k, c in self.terms.items():
            below = 0
            for shift, x in fields:
                e = (k >> shift & _FIELD_MASK) - below
                if e:
                    below += e
                    c = c * pow(x, e, p)  # x ** e over Q, reduced over GF(p)
            total = total + c
        return field.coerce(total)

    def line_coefficients(self, a: Sequence, b: Sequence) -> list:
        """[c_0, ..., c_d] with F(a + T b) = sum_j c_j T^j, d the total degree ([] for 0).

        One pass over the terms: each term convolves the binomial rows of its
        factors (a_i + b_i T)^e, one row per (variable, exponent), built once;
        a factor with a_i or b_i zero is one term, not a row.
        """
        ring = self.ring
        field, p = ring.field, ring._modulus
        a = [field.coerce(x) for x in a]
        b = [field.coerce(x) for x in b]
        if len(a) != len(ring.variables) or len(b) != len(a):
            raise DomainError("wrong number of coordinates")
        fields = list(enumerate(ring._shifts))
        rows: dict = {}
        out = [0] * ((max(self.terms) >> ring._degree_shift) + 1 if self.terms else 0)
        for k, c in self.terms.items():
            series, low, below = [c], 0, 0  # series[j] is the coefficient of T^(low + j)
            for i, shift in fields:
                e = (k >> shift & _FIELD_MASK) - below
                if e:
                    below += e
                    row = rows.get((i, e))
                    if row is None:
                        # (lowest power, coefficients): a zero b_i leaves only
                        # the constant coefficient and a zero a_i only the top one.
                        if not b[i]:
                            row = 0, [pow(a[i], e, p)]
                        elif not a[i]:
                            row = e, [pow(b[i], e, p)]
                        else:
                            row = 0, _binomial_row(a[i], b[i], e, p, e + 1)
                        rows[i, e] = row
                    low += row[0]
                    longer = [0] * (len(series) + len(row[1]) - 1)
                    for s, u in enumerate(series):
                        for j, v in enumerate(row[1], s):
                            longer[j] += u * v
                    series = longer
            for j, v in enumerate(series, low):
                out[j] += v
        return [field.coerce(v) for v in out]

    def polar_part(self, a: Sequence, k: int) -> "Poly":
        """k! times the degree-k part of F(a + x) in x: the polar k-ic at a.

        The coefficient of x^alpha, |alpha| = k, is k! times the sum over the
        terms c x^e of c prod_i C(e_i, alpha_i) a_i^(e_i - alpha_i): one pass over
        the terms, each walking only its alpha <= e with |alpha| = k, summed
        into one dict under the packed alpha.  No derivative is taken and
        nothing is divided.
        """
        ring = self.ring
        field, p = ring.field, ring._modulus
        a, scale = [field.coerce(x) for x in a], field.coerce(math.factorial(k))
        if len(a) != len(ring.variables):
            raise DomainError("wrong number of coordinates")
        fields = list(zip(range(len(a)), ring._shifts, ring._var_keys))
        rows: dict = {}
        out: dict = {}
        get = out.get
        for key, c in self.terms.items():
            room = key >> ring._degree_shift  # the exponents not yet walked
            if room < k:
                continue
            # (packed alpha so far, value, degree left to place)
            partial, below = [(0, c * scale, k)], 0
            for i, shift, step in fields:
                e = (key >> shift & _FIELD_MASK) - below
                if e:
                    below += e
                    room -= e
                    row = rows.get((i, e))
                    if row is None:
                        row = rows[i, e] = _binomial_row(a[i], 1, e, p, min(e, k) + 1)
                    partial = [
                        (m + j * step, v * row[j], r - j)
                        for m, v, r in partial
                        for j in range(max(0, r - room), min(e, r) + 1)
                    ]
            for m, v, _ in partial:
                s = get(m)
                out[m] = v if s is None else s + v
        # Reduced once here over GF(p); cancelled sums are dropped.
        return Poly(ring, out)

    def divide_variables(self, scales: Sequence[int]) -> "Poly":
        """F(x_1 / s_1, ..., x_n / s_n) for nonzero integers s_i, in one pass:
        the coefficient of x^alpha is divided once by prod_i s_i^alpha_i,
        through the field's ``div``."""
        ring = self.ring
        div = ring.field.div
        if len(scales) != len(ring.variables):
            raise DomainError("wrong number of scales")
        fields = list(zip(ring._shifts, scales))
        out: dict = {}
        for k, c in self.terms.items():
            below, scale = 0, 1
            for shift, s in fields:
                total = k >> shift & _FIELD_MASK
                if total != below:
                    scale *= s ** (total - below)
                    below = total
            out[k] = div(c, scale)
        return Poly(ring, out)

    def substitute(
        self, assignment: Mapping[str, object], into: PolyRing = None, order: int = None
    ) -> "Poly":
        """Substitute a polynomial or scalar for every variable.

        Every variable actually occurring in self must be assigned; Poly
        values must share one target ring (``into`` may name it explicitly,
        and is required when all assigned values are scalars).  Each term is
        multiplied out against the powers of the values it reads, each built
        once by the kernel's one power route (``_CutPowers``) and reduced
        once, and added into one dict.  Without ``order`` a term whose
        degree would pass ``MAX_DEGREE`` raises DomainError before any of
        its products is formed.

        Given ``order``, only the terms of total degree <= order are built:
        each power is cut at that degree, and each partial product of a term
        is cut below it by the least degrees of the factors still to come
        (``_product_upto``), so a term costs the low-degree part of its
        expansion, not the whole of it, and a term whose expansion starts
        above the order costs nothing.
        """
        target = into
        for v in assignment.values():
            if isinstance(v, Poly):
                if target is None:
                    target = v.ring
                elif v.ring is not target and v.ring != target:
                    raise DomainError("substituted polynomials in mismatched rings")
        if target is None:
            raise DomainError("substitution needs a target ring (pass into=...)")
        used = self.variables_used()
        for name in used:
            if name not in assignment:
                raise DomainError(f"variable {name!r} is not assigned")
        for name in assignment:
            if name not in self.ring._index:
                raise DomainError(f"unknown variable {name!r}")
        shift, coerce, unpack = target._degree_shift, target.field.coerce, self.ring._unpack
        top = MAX_DEGREE if order is None else min(order, MAX_DEGREE)
        # Every scalar is coerced, also one for a variable that does not occur.
        values = {n: v if isinstance(v, Poly) else target.const(v) for n, v in assignment.items()}
        powers = [None] * len(self.ring.variables)  # read only for the variables that occur
        for name in used:
            powers[self.ring._index[name]] = _CutPowers(values[name], top)
        out: dict = {}
        get = out.get
        for mono, c in self.terms.items():
            factors = [(power, e) for power, e in zip(powers, unpack(mono)) if e]
            if order is None:
                _check_product_degree(sum([power.high * e for power, e in factors]))
            # The least degree of each power (past top for a zero value): the
            # factors still to come add at least that much, so each partial
            # product is cut that far below top.
            lows = [e * power.low for power, e in factors]
            room = top - sum(lows)
            if room < 0:
                continue
            term = {0: coerce(c)}
            for (power, e), low in zip(factors, lows):
                room += low
                term = _product_upto(term, power(e), room, shift)
            for k, v in term.items():
                s = get(k)
                out[k] = v if s is None else s + v
        return Poly(target, out)

    # -- printing ----------------------------------------------------------

    def sorted_terms(self) -> list:
        """(exponent tuple, coefficient) pairs, leading grevlex term first."""
        unpack, terms = self.ring._unpack, self.terms
        return [(unpack(k), terms[k]) for k in sorted(terms, reverse=True)]

    def __str__(self):
        terms = self.terms
        if not terms:
            return "0"
        fields = tuple(zip(self.ring.variables, self.ring._shifts))
        parts = []
        for key in sorted(terms, reverse=True):
            # the exponents are the differences of the packed prefix sums
            factors, below = [], 0
            for v, shift in fields:
                total = key >> shift & _FIELD_MASK
                e = total - below
                if e:
                    factors.append(v if e == 1 else f"{v}^{e}")
                    below = total
            c = terms[key]
            negative = c < 0
            a = -c if negative else c
            if not factors:
                body = str(a)
            elif a == 1:
                body = "*".join(factors)
            else:
                body = str(a) + "*" + "*".join(factors)
            if not parts:
                parts.append(f"-{body}" if negative else body)
            else:
                parts.append(f"- {body}" if negative else f"+ {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"Poly({self})"


class ProjPoint:
    """A projective point: a nonzero coordinate tuple, equal up to scale."""

    __slots__ = ("coords", "field")

    def __init__(self, coords: Sequence, field=QQ):
        coords = tuple(field.coerce(c) for c in coords)
        if not any(coords):
            raise DomainError("projective point needs a nonzero coordinate")
        self.coords = coords
        self.field = field

    def __len__(self):
        return len(self.coords)

    def __iter__(self):
        return iter(self.coords)

    def __eq__(self, other):
        if not isinstance(other, ProjPoint):
            return NotImplemented
        if len(self.coords) != len(other.coords) or self.field != other.field:
            return False
        a, b, coerce = self.coords, other.coords, self.field.coerce
        for i in range(len(a)):
            for j in range(i + 1, len(a)):
                if coerce(a[i] * b[j] - a[j] * b[i]):
                    return False
        return True

    def __repr__(self):
        return "(" + " : ".join(str(c) for c in self.coords) + ")"


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([+\-−*/^()])|(\S))")


def _tokenize(text: str) -> list:
    """(kind, value, position) triples ending in an ``end`` token; an
    operator is its own kind and ``−`` reads as ``-``."""
    tokens = []
    for m in _TOKEN.finditer(text):
        digits, name, op, junk = m.groups()
        if digits is not None:
            try:
                tokens.append(("int", int(digits), m.start(1)))
            except ValueError:  # longer than Python's int-to-str digit cap
                raise ParseError(f"integer of {len(digits)} digits is too long", m.start(1)) from None
        elif name is not None:
            tokens.append(("name", name, m.start(2)))
        elif op is not None:
            op = "-" if op == "−" else op
            tokens.append((op, op, m.start(3)))
        else:
            raise ParseError(f"unexpected character {junk!r}", m.start(4))
    tokens.append(("end", None, len(text)))
    return tokens


def _parse(text: str, ring: PolyRing) -> "Poly":
    # term ::= coeff | coeff '*' mono | mono  (no implicit multiplication);
    # each term is added straight into one {packed key: coefficient} dict.
    tokens = _tokenize(text)
    index, coerce, nvars = ring._index, ring.field.coerce, len(ring.variables)
    terms: dict = {}
    negative = tokens[0][0] == "-"
    i = 1 if tokens[0][0] in ("+", "-") else 0
    while True:
        kind, value, position = tokens[i]
        coeff, exps = 1, [0] * nvars
        if kind == "int":
            coeff = value
            i += 1
            if tokens[i][0] == "/":
                kind, den, position = tokens[i + 1]
                if kind != "int" or not den:
                    raise ParseError("denominator must be a positive integer", position)
                coeff = Fraction(value, den)
                i += 2
            more = tokens[i][0] == "*"
            i += more
        elif kind == "name":
            more = True
        else:
            raise ParseError("expected a term", position)
        while more:  # var ('^' nat)? ('*' var ('^' nat)?)*
            kind, name, position = tokens[i]
            if kind != "name":
                raise ParseError("expected a variable after '*'", position)
            v = index.get(name)
            if v is None:
                v = index.get(VARIABLE_ALIASES.get(name))
                if v is None:
                    raise ParseError(f"unknown variable {name!r}", position)
            i, e = i + 1, 1
            if tokens[i][0] == "^":
                kind, e, position = tokens[i + 1]
                if kind != "int":
                    raise ParseError("exponent must be a natural number", position)
                i += 2
            exps[v] += e
            more = tokens[i][0] == "*"
            i += more
        key = ring._pack(exps)  # the degree check comes before the coefficient's
        c = coerce(coeff)
        c = -c if negative else c
        s = terms.get(key)
        terms[key] = s + c if s else c  # a sum that cancelled restarts, as if absent
        kind, value, position = tokens[i]
        if kind == "end":
            return Poly(ring, terms)
        if kind not in ("+", "-"):
            raise ParseError(f"expected '+' or '-', found {value!r}", position)
        negative = kind == "-"
        i += 1


# ---------------------------------------------------------------------------
# determinants, resultants, valuations
# ---------------------------------------------------------------------------


def _det_cofactor(rows):
    """Laplace expansion along the top row with every minor computed once.

    The minors of the last k rows are keyed by the bitmask of their
    columns and built upward one row at a time: the minor on S + {j} gains
    (-1)^c a_ij times the minor on S, where c counts all columns of S left
    of j.  Zero entries and zero minors are skipped, the products of one
    minor are summed in place into one term dict, and each nonzero minor
    becomes one Poly, so a dense n x n matrix takes n 2^(n-1) - n products,
    no division and no ``Poly`` arithmetic.
    """
    ring = rows[0][0].ring
    shift = ring._degree_shift
    minors = {1 << j: entry for j, entry in enumerate(rows[-1]) if entry.terms}
    for row in reversed(rows[:-1]):
        entries = [
            (1 << j, e.terms, {k: -c for k, c in e.terms.items()}, max(e.terms) >> shift)
            for j, e in enumerate(row)
            if e.terms
        ]
        sums: dict = {}
        for mask, minor in minors.items():
            terms = minor.terms
            degree = max(terms) >> shift
            for bit, plus, minus, entry_degree in entries:
                if mask & bit:
                    continue
                _check_product_degree(entry_degree + degree)
                target = sums.get(mask | bit)
                if target is None:
                    target = sums[mask | bit] = {}
                _product(minus if (mask & (bit - 1)).bit_count() & 1 else plus, terms, target)
        minors = {mask: m for mask, out in sums.items() if (m := Poly(ring, out)).terms}
    return minors.get((1 << len(rows)) - 1, ring.zero())


def exact_div(f: Poly, g: Poly) -> Poly:
    """Exact quotient f/g in the polynomial ring; raises if not divisible.

    One remainder dict is updated in place: each step pops its leading
    term and subtracts that quotient term times the rest of g.  The
    quotient is gathered in one dict and made one Poly at the end.
    """
    if g.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    ring = f.ring
    if g.ring is not ring and g.ring != ring:
        raise DomainError("mismatched rings in exact_div")
    div, p = ring.field.div, ring._modulus
    gk = max(g.terms)
    gc, ge = g.terms[gk], ring._unpack(gk)
    rest = [(k, c) for k, c in g.terms.items() if k != gk]
    r = dict(f.terms)
    q: dict = {}
    while r:
        rk = max(r)
        if any(a < b for a, b in zip(ring._unpack(rk), ge)):
            raise DomainError("inexact polynomial division")
        qk, t = rk - gk, div(r.pop(rk), gc)
        q[qk] = t
        for k, c in rest:
            k += qk
            s = r.get(k, 0) - t * c
            if p is not None:
                s %= p
            if s:
                r[k] = s
            else:
                r.pop(k, None)
    return Poly(ring, q)


def _det_bareiss(rows):
    """Fraction-free elimination: step k replaces each m_ij below and right of
    the pivot by (m_ij m_kk - m_ik m_kj) / m_(k-1)(k-1).  Both products are
    summed in place into one term dict, which becomes one Poly for
    ``exact_div``."""
    ring = rows[0][0].ring
    shift = ring._degree_shift
    n = len(rows)
    m = [list(row) for row in rows]
    sign = 1
    prev = ring.one()
    for k in range(n - 1):
        if m[k][k].is_zero:
            for i in range(k + 1, n):
                if not m[i][k].is_zero:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return ring.zero()
        pivot = m[k][k].terms
        pivot_degree = max(pivot) >> shift
        for i in range(k + 1, n):
            lead = m[i][k].terms
            minus = {key: -c for key, c in lead.items()}
            for j in range(k + 1, n):
                entry, right = m[i][j].terms, m[k][j].terms
                if entry:
                    _check_product_degree((max(entry) >> shift) + pivot_degree)
                if lead and right:
                    _check_product_degree((max(lead) >> shift) + (max(right) >> shift))
                num = _product(minus, right, _product(entry, pivot))
                m[i][j] = exact_div(Poly(ring, num), prev)
        prev = m[k][k]
    d = m[n - 1][n - 1]
    return d if sign == 1 else -d


def determinant(rows: Sequence[Sequence[Poly]]) -> Poly:
    """Exact determinant of a square matrix of polynomials.

    Size <= 4 takes a Laplace expansion that shares its minors: the minors
    of the bottom rows, keyed by their column bitmask, are built upward one
    row at a time and summed in place, with no division (a dense 4 x 4 is
    28 products).  Larger matrices take fraction-free Bareiss elimination
    (valid over an integral domain), one ``exact_div`` per entry per step.
    """
    n = len(rows)
    if n == 0 or any(len(row) != n for row in rows):
        raise DomainError("determinant needs a nonempty square matrix")
    ring = rows[0][0].ring
    for row in rows:
        for entry in row:
            if entry.ring is not ring and entry.ring != ring:
                raise DomainError("matrix entries in mismatched rings")
    if n <= 4:
        return _det_cofactor([list(row) for row in rows])
    return _det_bareiss(rows)


def coefficients_in(f: Poly, var: str) -> dict:
    """{e: coefficient of var^e} of f for the nonzero coefficients, in ascending e.

    Each coefficient is a polynomial in the same ring, not involving var;
    the zero polynomial gives {}.
    """
    ring = f.ring
    i = ring._index[var]
    step = ring._var_keys[i]
    buckets: dict = {}
    for k, c in f.terms.items():
        e = ring._exponent(k, i)
        buckets.setdefault(e, {})[k - e * step] = c
    return {e: Poly(ring, buckets[e]) for e in sorted(buckets)}


def sylvester_rows(fc: Sequence, gc: Sequence, zero) -> list:
    """Sylvester matrix of two coefficient lists (leading first), padded with zero."""
    m, n = len(fc) - 1, len(gc) - 1
    rows = [[zero] * i + list(fc) + [zero] * (n - 1 - i) for i in range(n)]
    rows += [[zero] * i + list(gc) + [zero] * (m - 1 - i) for i in range(m)]
    return rows


def resultant(f: Poly, g: Poly, var: str) -> Poly:
    """Sylvester resultant of f and g taken as polynomials in var.

    The result is a polynomial in the remaining variables, reported with
    the sign of the standard Sylvester layout; it vanishes exactly when f
    and g share a root over the algebraic closure (for nonvanishing
    leading coefficients).
    """
    if f.is_zero or g.is_zero:
        raise DomainError("resultant of the zero polynomial")
    if f.ring is not g.ring and f.ring != g.ring:
        raise DomainError("mismatched rings in resultant")
    fc, gc = coefficients_in(f, var), coefficients_in(g, var)
    df, dg = max(fc), max(gc)
    if df == 0 and dg == 0:
        raise DomainError(f"neither argument involves {var!r}")
    if df == 0:
        return f ** dg
    if dg == 0:
        return g ** df
    zero = f.ring.zero()
    return determinant(sylvester_rows(
        [fc.get(e, zero) for e in range(df, -1, -1)],
        [gc.get(e, zero) for e in range(dg, -1, -1)],
        zero,
    ))


def valuation(f: Poly, var: str):
    """Least exponent of var with a nonzero coefficient; INFINITY for 0.

    f must be univariate in var.
    """
    if f.is_zero:
        return INFINITY
    if any(u != var for u in f.variables_used()):
        raise DomainError(f"polynomial involves more than {var!r}")
    i = f.ring._index[var]
    return min(f.ring._exponent(k, i) for k in f.terms)
