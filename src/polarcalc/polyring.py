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
in 0 .. p - 1; a scalar computed outside the kernel goes through the
field's ``coerce`` or ``div`` before it is compared or truth-tested.
Since ``int / int`` is a float, coefficients are divided only through the
field's ``div``, never with ``/``.  All arithmetic is exact; there is no
floating point anywhere in this package.

A ``Poly`` is built one of two ways.  ``Poly(ring, terms)``, the public
constructor, normalizes: it copies the dict, drops zero values and over
GF(p) reduces each value once, so the loops that feed it (products,
substitution, directional derivatives, polar parts, the parser) may work
on unreduced ints and leave cancelled sums in.  A dict the kernel has
just built clean (no zero value, and over GF(p) every value in
1 .. p - 1) is adopted as it is, with no copy: sums and differences
(reduced as they are formed), negation, scalar ``*`` and ``/``,
``partial``, ``from_terms``, the graded pieces, ``exact_div``'s quotient,
powers and the ring's ``const``, ``var`` and ``monomial``.

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

A product of two polynomials takes one of two routes, worked out from its
factors.  Where it forms at least ``_FLAT_MIN_PAIRS`` term pairs and its
list would pay (at most ``_SLOTS_PER_PAIR`` slots a pair and
``_FLAT_SLOTS`` in all), each factor's packed keys are read once as small
local offsets (``_Offsets``, the layout the flat determinant uses too) and
the pairs are summed into one flat list indexed by offset.  Otherwise, as
for small products and sparse factors of high degree, they are summed
into one term dict keyed by the packed monomial.

A monomial x_1^e_1 ... x_n^e_n is packed into one int of n 32-bit fields
that hold, from the bottom, the prefix sums e_1, e_1 + e_2, ...,
e_1 + ... + e_n; the top field is the total degree.  Keys add under
multiplication, and plain int order is the graded reverse lexicographic
order, so sorting and the leading term need no key function.  Every field
is at most the total degree, so a monomial's total degree is capped at
``MAX_DEGREE`` = 2^32 - 1: building a monomial or a product past it raises
DomainError.  Exponent tuples are packed and unpacked only at the kernel's
edges: ``monomial``, ``from_terms`` and ``coefficient`` in (each tuple
checked as it is packed, in one loop) and ``sorted_terms`` out.  Printing
builds no tuple: it reads each exponent off the packed key as the
difference of two prefix sums, in the one pass that writes the term.
Each ring keeps two small memos of at most ``_MEMO_SIZE`` entries each:
``from_terms`` packs each distinct exponent tuple once per ring (a tuple
is kept only once ``_pack`` has accepted it, so a bad one raises on every
call), and the one-pass kernels (``evaluate``, ``directional_derivative``,
``line_coefficients``, ``polar_part``, ``substitute``, ``divide_variables``)
read the nonzero exponents of each distinct packed key once per ring
(``_support``).

The fields draw the seeded instances' values with ``randrange``:
``Rationals.random`` is ``randrange(19) - 9`` and ``PrimeField.random`` is
``randrange(p)``, the values ``randint(-9, 9)`` and ``randint(0, p - 1)``
give from the same state, so every seeded instance stream stays the same.

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
  time, so no ``Poly`` product, sum or negation runs; each minor is summed
  into one flat list indexed by small local offsets, laid out as for the
  flat product, where the entries' term counts and exponent ranges show
  that it pays, and otherwise into one term dict), fraction-free Bareiss
  elimination above that, each update m_ij m_kk - m_ik m_kj summed in
  place into one term dict the same way, with an ``exact_div`` that
  updates one remainder dict in place and takes each leading term off a
  max-heap of its keys,
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
from heapq import heapify, heappop, heappush
from itertools import compress
from operator import ge, neg
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

    def coerce_all(self, values) -> list:
        """[coerce(v) for v in values], with no call for an ``int``, which is in Q."""
        return [v if type(v) is int else self.coerce(v) for v in values]

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
        """rng.randint(-9, 9), drawn as randrange(19) - 9: the same value from
        the same state, with one call fewer."""
        return rng.randrange(19) - 9

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

    def coerce_all(self, values) -> list:
        """[coerce(v) for v in values], with no call for an ``int`` already in
        0 .. p - 1 (a bool, a Fraction or an int out of range is coerced)."""
        p = self.p
        return [v if type(v) is int and 0 <= v < p else self.coerce(v) for v in values]

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
        """rng.randint(0, p - 1), drawn as randrange(p): the same value from
        the same state, with one call fewer."""
        return rng.randrange(self.p)

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
# The most entries each of a ring's two monomial memos keeps: the forms of
# degree <= 5 in four variables have 126 monomials, and a memo stays small
# however many distinct monomials pass through it.
_MEMO_SIZE = 256


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


def _sum_into(out: dict, terms: dict, negate: bool, p) -> dict:
    """out + terms (out - terms when negate), summed into out in place.

    Both dicts hold clean terms (no zero value, and over GF(p), p not None,
    only values in 1 .. p - 1), and so does the result, which the caller
    adopts: over GF(p) each sum is reduced as it is formed, and a sum that
    cancels leaves the dict.  Over Q a difference is subtracted term by
    term, not added negated, so a Fraction term costs one Fraction, not two.
    """
    get, pop = out.get, out.pop
    if p is not None:
        for k, c in terms.items():
            s = get(k)
            if negate:
                c = p - c
            s = c if s is None else (s + c) % p
            if s:
                out[k] = s
            else:
                pop(k)
    elif negate:
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


def _cleaned(terms: Mapping[int, Scalar], p) -> dict:
    """The nonzero terms of a term dict, reduced into 1 .. p - 1 over GF(p)."""
    if p is None:
        return {k: c for k, c in terms.items() if c}
    return {k: r for k, c in terms.items() if (r := c % p)}


class _CutPowers:
    """The powers of one value, cut at degree top, each built once: the
    kernel's one power route, read by ``Poly.__pow__`` and ``substitute``.

    With h the value's term of least degree (its least key, so its constant
    term when it has one) and R the rest, (h + R)^e is the sum over j of
    C(e, j) h^(e - j) R^j.  h^(e - j) is one term, its key times e - j, and
    term j has no monomial below e deg h + j (least degree of R - deg h),
    so the binomial row stops at the first j that puts that past top; each
    R^j is built once, cut at top, from R^(j - 1), for every exponent, and
    a shifted term is kept only up to top.  Each rung and each power read
    is normalized into a plain term dict in one comprehension (``_cleaned``,
    the constructor's own), with no ``Poly`` built; ``__pow__`` adopts the
    power it reads.
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
                ladder.append(_cleaned(rung, self.ring._modulus))
            out, bound, key = {}, self.bound, head * e
            get = out.get
            for b, rung in zip(_binomial_row(self.coeff, 1, e, self.ring._modulus, stop), ladder):
                for k, c in rung.items():  # h^(e - j) R^j, up to top
                    k += key
                    if k < bound:
                        s = get(k)
                        out[k] = b * c if s is None else s + b * c
                key -= head
            out = self.memo[e] = _cleaned(out, self.ring._modulus)
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
        self._fields = tuple(enumerate(self._shifts))  # (variable index, bit offset)
        # The packed key of each variable: one added to its field and every field above.
        self._var_keys = tuple(sum(1 << s for s in self._shifts[i:]) for i in range(len(variables)))
        # from_terms' memo: exponent tuple -> packed key, each stored only
        # once _pack has accepted it; and _support's: packed key -> support.
        # Each holds at most _MEMO_SIZE entries.
        self._packed: dict = {}
        self._supports: dict = {}

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

    def _variable(self, name: str) -> int:
        """The index of a variable of the ring; DomainError for any other name."""
        i = self._index.get(name)
        if i is None:
            raise DomainError(f"unknown variable {name!r}")
        return i

    def _unpack(self, key: int) -> Exponents:
        exps, below = [], 0
        for shift in self._shifts:
            total = key >> shift & _FIELD_MASK
            exps.append(total - below)
            below = total
        return tuple(exps)

    def _support(self, key: int) -> list:
        """[(i, e_i), ...] over the variables i with a nonzero exponent in a
        packed monomial, ascending in i, kept in the ring's memo (up to
        _MEMO_SIZE keys).  Callers read the memo first, as
        ``supports.get(key) or support(key)``, so each distinct key is
        decoded once."""
        out, below, degree = [], 0, key >> self._degree_shift
        for i, shift in self._fields:
            total = key >> shift & _FIELD_MASK
            if total != below:
                out.append((i, total - below))
                if total == degree:  # the other exponents are zero
                    break
                below = total
        if len(self._supports) < _MEMO_SIZE:
            self._supports[key] = out
        return out

    def _exponent(self, key: int, i: int) -> int:
        """The exponent of variable i in a packed monomial."""
        total = key >> self._shifts[i] & _FIELD_MASK
        return total - (key >> self._shifts[i - 1] & _FIELD_MASK) if i else total

    # -- constructors ------------------------------------------------------

    def zero(self) -> "Poly":
        return _adopt(self, {})

    def one(self) -> "Poly":
        return self.const(1)

    def const(self, c) -> "Poly":
        c = self.field.coerce(c)
        return _adopt(self, {0: c} if c else {})

    def var(self, name: str) -> "Poly":
        return _adopt(self, {self._var_keys[self._variable(name)]: self.field.coerce(1)})

    def gens(self) -> tuple:
        return tuple(self.var(v) for v in self.variables)

    def monomial(self, exps: Sequence[int], coeff=1) -> "Poly":
        key = self._pack(exps)
        c = self.field.coerce(coeff)
        return _adopt(self, {key: c} if c else {})

    def from_terms(self, pairs) -> "Poly":
        """The sum of coeff * x^exps over (exponent tuple, coeff) pairs, built in one dict.

        Like terms combine and a sum that cancels leaves the dict, so the
        result equals, term order included, adding the ``monomial``s in turn.
        Each distinct exponent tuple is packed once per ring: its key is kept
        in the ring's memo (up to _MEMO_SIZE tuples) once ``_pack`` has
        accepted it, so a bad tuple raises on every call.
        """
        packed, coerce, p = self._packed, self.field.coerce, self._modulus
        out: dict = {}
        for exps, c in pairs:
            exps = tuple(exps)
            key = packed.get(exps)
            if key is None:
                key = self._pack(exps)
                if len(packed) < _MEMO_SIZE:
                    packed[exps] = key
            c = coerce(c)
            s = out.get(key)
            if s is not None:  # reduced over GF(p), so that a sum that cancels reads 0
                c = s + c if p is None else (s + c) % p
            if c:
                out[key] = c
            else:
                out.pop(key, None)
        return _adopt(self, out)

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
    coefficients, reduced into 1 .. p - 1 over GF(p).  ``Poly(ring, terms)``
    normalizes a copy of the dict it is given; a dict the kernel has built
    clean is adopted as it is (``_adopt``).  The zero polynomial
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
        self.terms = _cleaned(terms, ring._modulus)

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
        return {d: _adopt(self.ring, parts[d]) for d in sorted(parts)}

    def degree_in(self, var: str) -> int:
        i = self.ring._variable(var)
        if self.is_zero:
            raise DomainError("degree of the zero polynomial is undefined")
        exponent = self.ring._exponent
        return max(exponent(k, i) for k in self.terms)

    def variables_used(self) -> tuple:
        supports, support = self.ring._supports, self.ring._support
        used = {i for k in self.terms for i, _ in supports.get(k) or support(k)}
        return tuple(v for i, v in enumerate(self.ring.variables) if i in used)

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
        return _adopt(self.ring, _sum_into(dict(self.terms), terms, False, self.ring._modulus))

    __radd__ = __add__

    def __neg__(self):
        p = self.ring._modulus
        if p is None:
            return _adopt(self.ring, {e: -c for e, c in self.terms.items()})
        return _adopt(self.ring, {e: p - c for e, c in self.terms.items()})

    def __sub__(self, other):
        terms = self._operand(other)
        if terms is None:
            return NotImplemented
        return _adopt(self.ring, _sum_into(dict(self.terms), terms, True, self.ring._modulus))

    def __rsub__(self, other):
        terms = self._operand(other)
        if terms is None:
            return NotImplemented
        return _adopt(self.ring, _sum_into(dict(terms), self.terms, True, self.ring._modulus))

    def __mul__(self, other):
        """The product with a scalar (one pass over the terms) or a Poly.

        Two nonzero polynomials past the degree limit raise DomainError
        before any pair is formed.  A product of at least _FLAT_MIN_PAIRS
        term pairs whose flat list pays (``_product_layout``) is summed at
        local offsets (``_product_flat``); any other is summed into one term
        dict by ``_product``.
        """
        if isinstance(other, (int, Fraction)):
            ring = self.ring
            c, p = ring.field.coerce(other), ring._modulus
            if not c:
                return _adopt(ring, {})
            if p is None:
                return _adopt(ring, {e: v * c for e, v in self.terms.items()})
            return _adopt(ring, {e: v * c % p for e, v in self.terms.items()})
        terms = self._operand(other)
        if terms is None:
            return NotImplemented
        if self.terms and terms:
            shift = self.ring._degree_shift
            _check_product_degree((max(self.terms) >> shift) + (max(terms) >> shift))
            if len(self.terms) * len(terms) >= _FLAT_MIN_PAIRS:
                local = _product_layout(self.ring, self.terms, terms)
                if local is not None:
                    return _product_flat(self.ring, local)
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
        return _adopt(self.ring, {e: field.div(v, c) for e, v in self.terms.items()})

    def __pow__(self, e: int):
        """self^e (e >= 0) from the one power route, ``_CutPowers``; past
        ``MAX_DEGREE`` it raises DomainError before any product is formed."""
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            raise DomainError("negative polynomial power")
        top = e * (max(self.terms) >> self.ring._degree_shift) if self.terms else 0
        _check_product_degree(top)
        return _adopt(self.ring, _CutPowers(self, top)(e))

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
        i, p, exponent = ring._variable(var), ring._modulus, ring._exponent
        step = ring._var_keys[i]
        if p is None:
            out = {k - step: c * e for k, c in self.terms.items() if (e := exponent(k, i))}
        else:  # c e vanishes mod p also where p divides e
            out = {k - step: r for k, c in self.terms.items() if (r := c * exponent(k, i) % p)}
        return _adopt(ring, out)

    def directional_derivative(self, coords: Sequence) -> "Poly":
        """sum_i coords[i] * dF/dx_i in one pass over the terms and one dict."""
        ring = self.ring
        coords = ring.field.coerce_all(coords)
        if len(coords) != len(ring.variables):
            raise DomainError("wrong number of coordinates")
        steps, supports, support = ring._var_keys, ring._supports, ring._support
        out: dict = {}
        get = out.get
        for k, c in self.terms.items():
            for i, e in supports.get(k) or support(k):
                a = coords[i]
                if a:
                    key = k - steps[i]
                    s = get(key)
                    out[key] = c * e * a if s is None else s + c * e * a
        # Reduced once here over GF(p); cancelled terms are dropped.
        return Poly(ring, out)

    def evaluate(self, coords: Sequence):
        """Value at a scalar tuple (one entry per ring variable)."""
        ring = self.ring
        field, p = ring.field, ring._modulus
        coords = field.coerce_all(coords)
        if len(coords) != len(ring.variables):
            raise DomainError("wrong number of coordinates")
        supports, support = ring._supports, ring._support
        total = 0
        for k, c in self.terms.items():
            for i, e in supports.get(k) or support(k):
                c = c * pow(coords[i], e, p)  # x ** e over Q, reduced over GF(p)
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
        a, b = field.coerce_all(a), field.coerce_all(b)
        if len(a) != len(ring.variables) or len(b) != len(a):
            raise DomainError("wrong number of coordinates")
        supports, support = ring._supports, ring._support
        rows: dict = {}
        out = [0] * ((max(self.terms) >> ring._degree_shift) + 1 if self.terms else 0)
        for k, c in self.terms.items():
            series, low = [c], 0  # series[j] is the coefficient of T^(low + j)
            for ie in supports.get(k) or support(k):
                row = rows.get(ie)
                if row is None:
                    # (lowest power, coefficients): a zero b_i leaves only
                    # the constant coefficient and a zero a_i only the top one.
                    i, e = ie
                    if not b[i]:
                        row = 0, [pow(a[i], e, p)]
                    elif not a[i]:
                        row = e, [pow(b[i], e, p)]
                    else:
                        row = 0, _binomial_row(a[i], b[i], e, p, e + 1)
                    rows[ie] = row
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
        a, scale = field.coerce_all(a), field.coerce(math.factorial(k))
        if len(a) != len(ring.variables):
            raise DomainError("wrong number of coordinates")
        shift, steps = ring._degree_shift, ring._var_keys
        supports, support = ring._supports, ring._support
        rows: dict = {}
        out: dict = {}
        get = out.get
        for key, c in self.terms.items():
            room = key >> shift  # the exponents not yet walked
            if room < k:
                continue
            # (packed alpha so far, value, degree left to place)
            partial = [(0, c * scale, k)]
            for ie in supports.get(key) or support(key):
                i, e = ie
                room -= e
                row = rows.get(ie)
                if row is None:
                    row = rows[ie] = _binomial_row(a[i], 1, e, p, min(e, k) + 1)
                step = steps[i]
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
        supports, support = ring._supports, ring._support
        out: dict = {}
        for k, c in self.terms.items():
            scale = 1
            for i, e in supports.get(k) or support(k):
                scale *= scales[i] ** e
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
            self.ring._variable(name)
        shift, coerce = target._degree_shift, target.field.coerce
        supports, support = self.ring._supports, self.ring._support
        top = MAX_DEGREE if order is None else min(order, MAX_DEGREE)
        # Every scalar is coerced, also one for a variable that does not occur.
        values = {n: v if isinstance(v, Poly) else target.const(v) for n, v in assignment.items()}
        powers = [None] * len(self.ring.variables)  # read only for the variables that occur
        for name in used:
            powers[self.ring._index[name]] = _CutPowers(values[name], top)
        out: dict = {}
        get = out.get
        for mono, c in self.terms.items():
            factors = [(powers[i], e) for i, e in supports.get(mono) or support(mono)]
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


def _adopt(ring: PolyRing, terms: dict) -> Poly:
    """A Poly holding ``terms`` itself: no copy, no reduction.

    Only the kernel calls it, with a dict it has just built clean and hands
    over: no value is zero and, over GF(p), every value lies in 1 .. p - 1.
    """
    poly = object.__new__(Poly)
    poly.ring = ring
    poly.terms = terms
    return poly


class ProjPoint:
    """A projective point: a nonzero coordinate tuple, equal up to scale."""

    __slots__ = ("coords", "field")

    def __init__(self, coords: Sequence, field=QQ):
        coords = tuple(field.coerce_all(coords))
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
        if len(self.coords) != len(other.coords):
            return False
        if self.field is not other.field and self.field != other.field:
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
# flat sums at local offsets; determinants, resultants, valuations
# ---------------------------------------------------------------------------


# The flat routes of ``Poly.__mul__`` and ``_det_cofactor`` run only where
# the pairs they form reach _FLAT_MIN_PAIRS and pay for the slots they
# scan, and no list they sum into is longer than _FLAT_SLOTS.
_FLAT_MIN_PAIRS = 1500
_SLOTS_PER_PAIR = 2
_FLAT_SLOTS = 1 << 20


class _Offsets:
    """Packed monomials read as small local offsets: the one layout of the
    flat routes, the product's (``_product_layout``) and the determinant's
    (``_flat_layout``).

    The term dicts come in groups, and each product that is summed takes
    one factor from each group: the two factors of ``*``, or the rows of a
    matrix.  Field i of such a product's packed key is the sum of its
    factors' fields, so it lies in lo_i .. lo_i + r_i - 1, with lo_i the sum
    over the groups of the group's least field i and r_i = 1 + the sum of
    the groups' field ranges.  A term's offset is the mixed-radix number
    sum_i (field_i - its group's least field_i) * stride_i, stride_0 = 1 and
    stride_(i+1) = stride_i r_i: offsets add under multiplication with no
    carry, ascend with the keys, and a whole product lies in ``span`` =
    prod_i r_i slots.  A field no group moves (the degree of homogeneous
    factors, the field of an unused leading variable) has radix 1.
    """

    def __init__(self, ring, groups):
        self.ring, self.groups = ring, groups
        shifts = ring._shifts
        self.shared = any(len(group) > 1 for group in groups)
        if not self.shared:
            # The factors of a product: each dict's keys, in its own order.
            self.keys = [list(group[0]) for group in groups]
            self.columns = [[[k >> s & _FIELD_MASK for k in keys] for s in shifts] for keys in self.keys]
            ranges = self.columns
        else:
            # The rows of a matrix (a Hessian's, a Sylvester matrix's) share
            # most of their monomials: the fields of each distinct monomial
            # of the whole matrix are read once.
            keys = list(set().union(*(t for group in groups for t in group)))
            self.keys = [keys]
            self.columns = [[[k >> s & _FIELD_MASK for k in keys] for s in shifts]]
            fields = dict(zip(keys, zip(*self.columns[0])))
            ranges = [list(zip(*map(fields.__getitem__, set().union(*group)))) for group in groups]
        self.lows = [[min(column) for column in columns] for columns in ranges]
        self.widths = [
            [max(column) - m for column, m in zip(columns, low)]
            for columns, low in zip(ranges, self.lows)
        ]
        self.radices = [1 + sum(column) for column in zip(*self.widths)]
        self.strides = [1]
        for r in self.radices[:-1]:
            self.strides.append(self.strides[-1] * r)
        self.span = math.prod(self.radices)

    def laid(self) -> list:
        """Each group's term dicts as lists of (offset, coefficient) pairs."""
        moved = [(i, stride) for i, (stride, r) in enumerate(zip(self.strides, self.radices)) if r > 1]
        bases = [sum([low[i] * stride for i, stride in moved]) for low in self.lows]

        def offsets(keys, columns, base):
            out = [-base] * len(keys)
            for i, stride in moved:
                out = [o + x * stride for o, x in zip(out, columns[i])]
            return out

        if not self.shared:
            return [
                [list(zip(offsets(keys, columns, base), group[0].values()))]
                for group, keys, columns, base in zip(self.groups, self.keys, self.columns, bases)
            ]
        at = dict(zip(self.keys[0], offsets(self.keys[0], self.columns[0], 0)))
        return [
            [[(at[k] - base, c) for k, c in t.items()] for t in group]
            for group, base in zip(self.groups, bases)
        ]

    def decode(self, pairs) -> dict:
        """{packed key: coefficient} for (offset, coefficient) pairs of
        products, in their order.

        An offset splits into its low digits, o % width, and its high ones,
        o // width; the packed keys of each part come from a table about the
        square root of ``span`` long.
        """
        shifts = self.ring._shifts
        lo = [sum(column) for column in zip(*self.lows)]
        low, high = [sum(m << s for m, s in zip(lo, shifts))], [0]
        for s, r in zip(shifts, self.radices):
            if r == 1:
                continue
            if len(low) ** 2 < self.span:
                low = [k + (d << s) for d in range(r) for k in low]
            else:
                high = [k + (d << s) for d in range(r) for k in high]
        width = len(low)
        return {high[o // width] + low[o % width]: c for o, c in pairs}


def _nonzero(t: list, p) -> list:
    """The (offset, value) pairs of a flat list's nonzero slots, in
    ascending order, each value reduced over GF(p) (p not None)."""
    slots = compress(range(len(t)), t)
    if p is None:
        return [(i, t[i]) for i in slots]
    return [(i, c) for i in slots if (c := t[i] % p)]


def _product_layout(ring, left: dict, right: dict):
    """The two factors of a product at local offsets (``_Offsets``), for
    ``_product_flat``, or None where the product stays on packed keys: where
    its list would pass _FLAT_SLOTS (sparse factors of high degree) or scan
    more than _SLOTS_PER_PAIR slots per pair.  ``Poly.__mul__`` asks only
    for a product of two nonzero factors that forms _FLAT_MIN_PAIRS pairs
    or more and is under the degree limit."""
    local = _Offsets(ring, [[left], [right]])
    if local.span > min(_FLAT_SLOTS, _SLOTS_PER_PAIR * len(left) * len(right)):
        return None
    return local


def _product_flat(ring, local) -> "Poly":
    """The product laid out by ``_product_layout``, summed into one flat list
    by t[ia + ib] += ca * cb; its nonzero slots, reduced over GF(p), become
    the clean dict that is adopted."""
    (left,), (right,) = local.laid()
    t = [0] * local.span
    for ia, ca in left:
        for ib, cb in right:
            t[ia + ib] += ca * cb
    return _adopt(ring, local.decode(_nonzero(t, ring._modulus)))


def _flat_layout(ring, rows):
    """The entries of a matrix of term dicts at local offsets (``_Offsets``,
    one group a row), for ``_det_flat``, or None where the expansion stays
    on packed keys.

    The route is worked out from the entries.  The pairs that the
    expansion forms are estimated from the rows' term counts, a minor of k
    rows taken to hold the product of its rows' term counts over n, but no
    more than its level's slots.  The expansion stays on packed keys when a
    bound on that estimate from the matrix's term count alone is under
    _FLAT_MIN_PAIRS (no field is read), when a row is zero, when a product
    could pass ``MAX_DEGREE`` (so that the same inputs raise DomainError),
    when the final list would pass _FLAT_SLOTS (sparse entries of high
    degree), and when the estimate is under _FLAT_MIN_PAIRS or the lists
    would scan more than _SLOTS_PER_PAIR slots per pair: there the
    conversion would cost more than the flat sums save.
    """
    n = len(rows)
    # The estimate below is n times a binomial sum, over k >= 2, of products
    # of k rows' mean entry sizes (term count over n).  Those means sum to at
    # most A, the matrix's term count over n, so by AM-GM each product is at
    # most (A / k)^k <= h^k, h = A / 2, and the bounds sum to
    # n h ((1 + h)^(n - 1) - 1).
    h = sum([len(e.terms) for row in rows for e in row]) / (2 * n)
    if n * h * ((1 + h) ** (n - 1) - 1) < _FLAT_MIN_PAIRS:
        return None
    terms = [[e.terms for e in row] for row in rows]
    totals = [sum(map(len, row)) for row in reversed(terms)]
    if not all(totals):
        return None
    local = _Offsets(ring, terms)
    if sum(low[-1] + width[-1] for low, width in zip(local.lows, local.widths)) > MAX_DEGREE:
        return None
    if local.span > _FLAT_SLOTS:
        return None
    # spans[k]: the slots of a minor on the bottom k + 1 rows
    spans, reach = [], [0] * len(ring._shifts)
    for width in reversed(local.widths):
        reach = [a + b for a, b in zip(reach, width)]
        spans.append(1 + sum(a * s for a, s in zip(reach, local.strides)))
    pairs, minor, slots = 0, 1, 0
    for k, (total, span) in enumerate(zip(totals, spans)):
        if k:
            pairs += math.comb(n - 1, k) * total * minor
            slots += math.comb(n, k + 1) * span
        minor = min(minor * total // n, span)
    if pairs < _FLAT_MIN_PAIRS or slots > _SLOTS_PER_PAIR * pairs:
        return None
    laid = [
        [(1 << j, plus, [(o, -c) for o, c in plus]) for j, plus in enumerate(row) if plus]
        for row in local.laid()
    ]
    return local, laid, spans


def _det_flat(ring, layout):
    """The shared-minor expansion of ``_det_cofactor`` at local offsets.

    Each minor is a list of (offset, coefficient) pairs, reduced over GF(p);
    the products of one new minor are summed into one flat list by
    t[ia + ib] += ca * cb, and only its nonzero slots are kept.  Only one
    list is alive at a time.  The determinant's offsets are turned back into
    packed keys, in ascending order, and the clean dict is adopted.
    """
    local, laid, spans = layout
    p = ring._modulus
    minors = {bit: plus for bit, plus, _ in laid[-1]}
    for entries, span in zip(reversed(laid[:-1]), spans[1:]):
        sums: dict = {}
        for target in {mask | bit for mask in minors for bit, _, _ in entries if not mask & bit}:
            t = [0] * span
            for bit, plus, minus in entries:
                minor = minors.get(target ^ bit) if target & bit else None
                if minor is not None:
                    for ia, ca in minus if (target & (bit - 1)).bit_count() & 1 else plus:
                        for ib, cb in minor:
                            t[ia + ib] += ca * cb
            pairs = _nonzero(t, p)
            if pairs:
                sums[target] = pairs
        minors = sums
    return _adopt(ring, local.decode(minors.get((1 << len(laid)) - 1, ())))


def _det_cofactor(rows):
    """Laplace expansion along the top row with every minor computed once.

    The minors of the last k rows are keyed by the bitmask of their
    columns and built upward one row at a time: the minor on S + {j} gains
    (-1)^c a_ij times the minor on S, where c counts all columns of S left
    of j.  Zero entries and zero minors are skipped, so a dense n x n
    matrix takes n 2^(n-1) - n products, no division and no ``Poly``
    arithmetic.  Two routes sum the products of one minor.  Where
    ``_flat_layout`` finds that it pays, the flat route (``_det_flat``)
    turns each entry's keys once into small local offsets and sums into
    one flat list indexed by offset.  Otherwise, always for sparse entries
    of high degree, whose list would be vast, the products are summed in
    place into one term dict keyed by the packed monomial; each nonzero
    minor is kept as its cleaned dict, and the determinant's is adopted.
    """
    ring = rows[0][0].ring
    layout = _flat_layout(ring, rows)
    if layout is not None:
        return _det_flat(ring, layout)
    shift, p = ring._degree_shift, ring._modulus
    minors = {1 << j: e.terms for j, e in enumerate(rows[-1]) if e.terms}
    for row in reversed(rows[:-1]):
        # No column lies left of column 0, so its entry is never negated.
        entries = [
            (1 << j, t, {k: -c for k, c in t.items()} if j else t, max(t) >> shift)
            for j, e in enumerate(row)
            if (t := e.terms)
        ]
        sums: dict = {}
        for mask, minor in minors.items():
            degree = max(minor) >> shift
            for bit, plus, minus, entry_degree in entries:
                if mask & bit:
                    continue
                if entry_degree + degree > MAX_DEGREE:  # the check raises
                    _check_product_degree(entry_degree + degree)
                target = sums.get(mask | bit)
                if target is None:
                    target = sums[mask | bit] = {}
                _product(minus if (mask & (bit - 1)).bit_count() & 1 else plus, minor, target)
        minors = {mask: m for mask, out in sums.items() if (m := _cleaned(out, p))}
    det = minors.get((1 << len(rows)) - 1)
    if det is None:
        return ring.zero()
    return _adopt(ring, det) if len(rows) > 1 else rows[0][0]  # a 1 x 1 is its entry


def exact_div(f: Poly, g: Poly) -> Poly:
    """Exact quotient f/g in the polynomial ring; raises if not divisible.

    One remainder dict is updated in place: each step pops its leading
    term and subtracts that quotient term times the rest of g.  The leading
    term comes off a max-heap of the remainder's keys, each pushed when it
    enters the dict; a popped key that has left it since is skipped.  Every
    key a step adds is below the one it popped, so the steps run in the
    order of taking the largest key each time.  The quotient is gathered in
    one dict and adopted at the end.
    """
    if g.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    ring = f.ring
    if g.ring is not ring and g.ring != ring:
        raise DomainError("mismatched rings in exact_div")
    div, p = ring.field.div, ring._modulus
    gk = max(g.terms)
    gc, gexps = g.terms[gk], ring._unpack(gk)
    rest = [(k, c) for k, c in g.terms.items() if k != gk]
    r = dict(f.terms)
    heap = list(map(neg, r))  # negated: heapq keeps the least on top
    heapify(heap)
    q: dict = {}
    while r:
        rk = -heappop(heap)
        lead = r.pop(rk, None)
        if lead is None:  # cancelled after it was pushed
            continue
        if not all(map(ge, ring._unpack(rk), gexps)):
            raise DomainError("inexact polynomial division")
        qk, t = rk - gk, div(lead, gc)
        q[qk] = t
        for k, c in rest:
            k += qk
            s = r.get(k)
            if s is None:
                heappush(heap, -k)
                s = 0
            s -= t * c
            if p is not None:
                s %= p
            if s:
                r[k] = s
            else:
                r.pop(k, None)
    return _adopt(ring, q)


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

    Size <= 4 takes a Laplace expansion that shares its minors
    (``_det_cofactor``): the minors of the bottom rows, keyed by their
    column bitmask, are built upward one row at a time with no division (a
    dense 4 x 4 is 28 products).  Each minor's products are summed into one
    flat list indexed by a local offset, the entries' packed monomials read
    as mixed-radix numbers whose field i has radix 1 + the sum over the rows
    of the row's range in that field (``_Offsets``, the layout of the flat
    product too), where the entries show that this pays:
    the pairs estimated from their term counts reach ``_FLAT_MIN_PAIRS``,
    the lists scan at most ``_SLOTS_PER_PAIR`` slots per pair and the
    longest holds at most ``_FLAT_SLOTS``.  Otherwise, as for sparse entries
    of high degree, they are summed into one term dict keyed by the packed
    monomial.  Larger matrices take fraction-free Bareiss elimination
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
        return _det_cofactor(rows)
    return _det_bareiss(rows)


def coefficients_in(f: Poly, var: str) -> dict:
    """{e: coefficient of var^e} of f for the nonzero coefficients, in ascending e.

    Each coefficient is a polynomial in the same ring, not involving var;
    the zero polynomial gives {}.
    """
    ring = f.ring
    i = ring._variable(var)
    step = ring._var_keys[i]
    buckets: dict = {}
    for k, c in f.terms.items():
        e = ring._exponent(k, i)
        buckets.setdefault(e, {})[k - e * step] = c
    return {e: _adopt(ring, buckets[e]) for e in sorted(buckets)}


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

    f must be univariate in var: a ring with var as its only variable needs
    no scan of the terms to show it.
    """
    ring = f.ring
    i = ring._variable(var)
    if f.is_zero:
        return INFINITY
    if len(ring.variables) > 1 and any(u != var for u in f.variables_used()):
        raise DomainError(f"polynomial involves more than {var!r}")
    return min(ring._exponent(k, i) for k in f.terms)
