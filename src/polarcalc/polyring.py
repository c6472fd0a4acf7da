"""Exact sparse multivariate polynomial arithmetic over Q and prime fields.

A polynomial is a dict mapping exponent tuples to nonzero coefficients.
Coefficients are ``fractions.Fraction`` in the rational mode, or ``Mod``
residues when the ring is built over a prime field.  All arithmetic is
exact; there is no floating point anywhere in this package.  The term
dict is internal to this module: other modules read a polynomial only
through ``Poly.coefficient``, ``coefficients_in``,
``Poly.homogeneous_components``, ``Poly.partial`` and ``Poly.evaluate``.

The kernel provides, besides the ring operations:

* a parser for a small expression grammar
  (``term ::= coeff | coeff '*' mono | mono``,
  ``mono ::= var('^'nat)? ('*' var('^'nat)?)*``,
  ``coeff ::= int | int '/' nat``, terms separated by ``+`` / ``-``,
  whitespace ignored, default variables ``x y z w`` with aliases
  ``x0..x3``),
* determinants of polynomial matrices (cofactor expansion for size <= 4,
  fraction-free Bareiss elimination above that),
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


class Mod:
    """Residue modulo a fixed prime; behaves like a number."""

    __slots__ = ("value", "p")

    def __init__(self, value: int, p: int):
        self.value = value % p
        self.p = p

    def _lift(self, other) -> "Mod":
        if isinstance(other, Mod):
            if other.p != self.p:
                raise DomainError("mixed moduli %d and %d" % (self.p, other.p))
            return other
        if isinstance(other, int):
            return Mod(other, self.p)
        if isinstance(other, Fraction):
            if other.denominator % self.p == 0:
                raise DomainError("denominator divisible by the modulus")
            return Mod(other.numerator * pow(other.denominator, -1, self.p), self.p)
        return NotImplemented

    def __add__(self, other):
        other = self._lift(other)
        return other if other is NotImplemented else Mod(self.value + other.value, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._lift(other)
        return other if other is NotImplemented else Mod(self.value - other.value, self.p)

    def __rsub__(self, other):
        other = self._lift(other)
        return other if other is NotImplemented else Mod(other.value - self.value, self.p)

    def __mul__(self, other):
        other = self._lift(other)
        return other if other is NotImplemented else Mod(self.value * other.value, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return other
        if other.value == 0:
            raise ZeroDivisionError("division by zero residue")
        return Mod(self.value * pow(other.value, -1, self.p), self.p)

    def __rtruediv__(self, other):
        other = self._lift(other)
        return other if other is NotImplemented else other.__truediv__(self)

    def __pow__(self, e: int):
        if e < 0:
            return Mod(1, self.p) / self ** (-e)
        return Mod(pow(self.value, e, self.p), self.p)

    def __neg__(self):
        return Mod(-self.value, self.p)

    def __eq__(self, other):
        if isinstance(other, Mod):
            return self.p == other.p and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.p
        return NotImplemented

    def __bool__(self):
        return self.value != 0

    def __hash__(self):
        return hash((self.value, self.p))

    def __repr__(self):
        return str(self.value)


class Rationals:
    """The field Q, with Fraction values."""

    name = "QQ"

    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, v) -> Fraction:
        if isinstance(v, Fraction):
            return v
        if isinstance(v, int):
            return Fraction(v)
        raise DomainError(f"cannot coerce {v!r} into Q")

    def is_square(self, v) -> bool:
        v = self.coerce(v)
        if v < 0:
            return False
        n, d = v.numerator, v.denominator
        return math.isqrt(n) ** 2 == n and math.isqrt(d) ** 2 == d

    def sqrt(self, v) -> Fraction:
        v = self.coerce(v)
        if not self.is_square(v):
            raise DomainError(f"{v} is not a square in Q")
        return Fraction(math.isqrt(v.numerator), math.isqrt(v.denominator))

    def random(self, rng) -> Fraction:
        return Fraction(rng.randint(-9, 9))

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """The field Z/p for a prime p, with Mod values."""

    def __init__(self, p: int):
        if not _is_probable_prime(p):
            raise DomainError(f"{p} is not prime")
        if p == 2:
            raise DomainError("p = 2 is not supported (square roots degenerate)")
        self.p = p
        self.name = f"GF({p})"
        self.zero = Mod(0, p)
        self.one = Mod(1, p)

    def coerce(self, v) -> Mod:
        if isinstance(v, Mod):
            if v.p != self.p:
                raise DomainError("residue from a different prime field")
            return v
        if isinstance(v, int):
            return Mod(v, self.p)
        if isinstance(v, Fraction):
            if v.denominator % self.p == 0:
                raise DomainError("denominator divisible by the modulus")
            return Mod(v.numerator * pow(v.denominator, -1, self.p), self.p)
        raise DomainError(f"cannot coerce {v!r} into GF({self.p})")

    def is_square(self, v) -> bool:
        v = self.coerce(v)
        if v.value == 0:
            return True
        return pow(v.value, (self.p - 1) // 2, self.p) == 1

    def sqrt(self, v) -> Mod:
        # Tonelli-Shanks.
        v = self.coerce(v)
        p = self.p
        if v.value == 0:
            return Mod(0, p)
        if not self.is_square(v):
            raise DomainError(f"{v.value} is not a square mod {p}")
        if p % 4 == 3:
            return Mod(pow(v.value, (p + 1) // 4, p), p)
        q, s = p - 1, 0
        while q % 2 == 0:
            q //= 2
            s += 1
        z = 2
        while pow(z, (p - 1) // 2, p) != p - 1:
            z += 1
        m, c, t, r = s, pow(z, q, p), pow(v.value, q, p), pow(v.value, (q + 1) // 2, p)
        while t != 1:
            t2, i = t * t % p, 1
            while t2 != 1:
                t2 = t2 * t2 % p
                i += 1
            b = pow(c, 1 << (m - i - 1), p)
            m, c = i, b * b % p
            t, r = t * c % p, r * b % p
        return Mod(r, p)

    def random(self, rng) -> Mod:
        return Mod(rng.randint(0, self.p - 1), self.p)

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
Scalar = Union[int, Fraction, Mod]


def _grevlex_key(exps: Exponents):
    return (sum(exps), tuple(-e for e in reversed(exps)))


class PolyRing:
    """A polynomial ring: an ordered variable tuple over a coefficient field."""

    def __init__(self, variables: Sequence[str] = DEFAULT_VARIABLES, field=QQ):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise DomainError("duplicate variable names")
        self.variables = variables
        self.field = field
        self._index = {v: i for i, v in enumerate(variables)}

    # -- constructors ------------------------------------------------------

    def zero(self) -> "Poly":
        return Poly(self, {})

    def one(self) -> "Poly":
        return self.const(1)

    def const(self, c) -> "Poly":
        c = self.field.coerce(c)
        if not c:
            return Poly(self, {})
        return Poly(self, {(0,) * len(self.variables): c})

    def var(self, name: str) -> "Poly":
        if name not in self._index:
            raise DomainError(f"unknown variable {name!r}")
        e = [0] * len(self.variables)
        e[self._index[name]] = 1
        return Poly(self, {tuple(e): self.field.coerce(1)})

    def gens(self) -> tuple:
        return tuple(self.var(v) for v in self.variables)

    def monomial(self, exps: Sequence[int], coeff=1) -> "Poly":
        exps = tuple(int(e) for e in exps)
        if len(exps) != len(self.variables) or any(e < 0 for e in exps):
            raise DomainError("bad exponent tuple")
        c = self.field.coerce(coeff)
        return Poly(self, {exps: c} if c else {})

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

    ``terms`` maps exponent tuples to nonzero coefficients; the zero
    polynomial is the empty dict (it is a legal value, but degree queries
    on it raise DomainError).  The dict is internal to the kernel: outside
    this module use ``coefficient``, ``coefficients_in``,
    ``homogeneous_components``, ``partial`` and ``evaluate``.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: Mapping[Exponents, Scalar]):
        self.ring = ring
        self.terms = {e: c for e, c in terms.items() if c}

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        if self.is_zero:
            raise DomainError("degree of the zero polynomial is undefined")
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        if self.is_zero:
            return True
        degrees = {sum(e) for e in self.terms}
        return len(degrees) == 1

    def homogeneous_components(self) -> list:
        """Parts of degree 0 .. total_degree(), each zero or of that degree; [] for 0."""
        if self.is_zero:
            return []
        parts: list = [dict() for _ in range(self.total_degree() + 1)]
        for e, c in self.terms.items():
            parts[sum(e)][e] = c
        return [Poly(self.ring, part) for part in parts]

    def degree_in(self, var: str) -> int:
        i = self.ring._index[var]
        if self.is_zero:
            raise DomainError("degree of the zero polynomial is undefined")
        return max(e[i] for e in self.terms)

    def variables_used(self) -> tuple:
        used = [False] * len(self.ring.variables)
        for e in self.terms:
            for i, k in enumerate(e):
                if k:
                    used[i] = True
        return tuple(v for v, u in zip(self.ring.variables, used) if u)

    def coefficient(self, exps: Sequence[int]):
        return self.terms.get(tuple(exps), self.ring.field.zero)

    def constant_value(self):
        if self.is_zero:
            return self.ring.field.zero
        if self.total_degree() > 0:
            raise DomainError("polynomial is not constant")
        return next(iter(self.terms.values()))

    # -- arithmetic --------------------------------------------------------

    def _coerce_other(self, other):
        if isinstance(other, Poly):
            if other.ring != self.ring:
                raise DomainError(
                    f"mismatched rings: {self.ring!r} vs {other.ring!r}"
                )
            return other
        if isinstance(other, (int, Fraction, Mod)):
            return self.ring.const(other)
        return None

    def __add__(self, other):
        other = self._coerce_other(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e)
            s = c if s is None else s + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return Poly(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce_other(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce_other(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce_other(other)
        if other is None:
            return NotImplemented
        if self.is_zero or other.is_zero:
            return self.ring.zero()
        out: dict = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = tuple(i + j for i, j in zip(ea, eb))
                s = out.get(e)
                s = ca * cb if s is None else s + ca * cb
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return Poly(self.ring, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        # Exact division by a nonzero scalar.
        if isinstance(other, Poly):
            other = other.constant_value()
        c = self.ring.field.coerce(other)
        if not c:
            raise ZeroDivisionError("division by zero scalar")
        return Poly(self.ring, {e: v / c for e, v in self.terms.items()})

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            raise DomainError("negative polynomial power")
        result = self.ring.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Mod)):
            other = self.ring.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    # -- calculus ----------------------------------------------------------

    def partial(self, var: str) -> "Poly":
        i = self.ring._index[var]
        out: dict = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            ne = list(e)
            ne[i] -= 1
            out[tuple(ne)] = c * e[i]
        return Poly(self.ring, out)

    def evaluate(self, coords: Sequence):
        """Value at a scalar tuple (one entry per ring variable)."""
        field = self.ring.field
        coords = [field.coerce(c) for c in coords]
        if len(coords) != len(self.ring.variables):
            raise DomainError("wrong number of coordinates")
        total = field.zero
        for e, c in self.terms.items():
            v = c
            for x, k in zip(coords, e):
                if k:
                    v = v * x ** k
            total = total + v
        return total

    def substitute(self, assignment: Mapping[str, object], into: PolyRing = None) -> "Poly":
        """Substitute a polynomial or scalar for every variable.

        Every variable actually occurring in self must be assigned; Poly
        values must share one target ring (``into`` may name it explicitly,
        and is required when all assigned values are scalars).
        """
        target = into
        for v in assignment.values():
            if isinstance(v, Poly):
                if target is None:
                    target = v.ring
                elif v.ring != target:
                    raise DomainError("substituted polynomials in mismatched rings")
        if target is None:
            raise DomainError("substitution needs a target ring (pass into=...)")
        values = {}
        for name in self.variables_used():
            if name not in assignment:
                raise DomainError(f"variable {name!r} is not assigned")
        for name, v in assignment.items():
            if name not in self.ring._index:
                raise DomainError(f"unknown variable {name!r}")
            values[name] = v if isinstance(v, Poly) else target.const(v)
        out = target.zero()
        cache: dict = {}
        for e, c in self.terms.items():
            term = target.const(c)
            for name, k in zip(self.ring.variables, e):
                if k == 0:
                    continue
                key = (name, k)
                if key not in cache:
                    cache[key] = values[name] ** k
                term = term * cache[key]
            out = out + term
        return out

    # -- printing ----------------------------------------------------------

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda item: _grevlex_key(item[0]), reverse=True)

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            mono = "*".join(
                v if k == 1 else f"{v}^{k}"
                for v, k in zip(self.ring.variables, e)
                if k
            )
            if isinstance(c, Mod):
                negative = False
                cstr = str(c.value)
                is_one = c.value == 1
            else:
                negative = c < 0
                a = -c if negative else c
                cstr = str(a)
                is_one = a == 1
            if not mono:
                body = cstr
            elif is_one:
                body = mono
            else:
                body = f"{cstr}*{mono}"
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
        a, b = self.coords, other.coords
        for i in range(len(a)):
            for j in range(i + 1, len(a)):
                if a[i] * b[j] != a[j] * b[i]:
                    return False
        return True

    def normalized(self) -> tuple:
        pivot = next(c for c in self.coords if c)
        return tuple(c / pivot for c in self.coords)

    def __repr__(self):
        return "(" + " : ".join(str(c) for c in self.coords) + ")"


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([+\-−*/^()]))")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", pos)
        if m.group(1) is not None:
            tokens.append(("int", int(m.group(1)), m.start(1)))
        elif m.group(2) is not None:
            tokens.append(("name", m.group(2), m.start(2)))
        else:
            op = m.group(3)
            if op == "−":
                op = "-"
            tokens.append(("op", op, m.start(3)))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


def _parse(text: str, ring: PolyRing):
    tokens = _tokenize(text)
    idx = 0

    def peek():
        return tokens[idx]

    def advance():
        nonlocal idx
        tok = tokens[idx]
        idx += 1
        return tok

    def resolve(name: str, position: int) -> str:
        if name in ring._index:
            return name
        alias = VARIABLE_ALIASES.get(name)
        if alias is not None and alias in ring._index:
            return alias
        raise ParseError(f"unknown variable {name!r}", position)

    def parse_varpow():
        kind, name, position = advance()
        v = resolve(name, position)
        exp = 1
        if peek()[0] == "op" and peek()[1] == "^":
            advance()
            kind, value, position = advance()
            if kind != "int":
                raise ParseError("exponent must be a natural number", position)
            exp = value
        e = [0] * len(ring.variables)
        e[ring._index[v]] = exp
        return tuple(e)

    def parse_term():
        # coeff | coeff '*' mono | mono   (no implicit multiplication)
        kind, value, position = peek()
        coeff = None
        exps = (0,) * len(ring.variables)
        if kind == "int":
            advance()
            num = value
            if peek()[0] == "op" and peek()[1] == "/":
                advance()
                kind2, den, pos2 = advance()
                if kind2 != "int" or den == 0:
                    raise ParseError("denominator must be a positive integer", pos2)
                coeff = Fraction(num, den)
            else:
                coeff = Fraction(num)
            if peek()[0] == "op" and peek()[1] == "*":
                advance()
                if peek()[0] != "name":
                    raise ParseError("expected a variable after '*'", peek()[2])
            else:
                return ring.const(coeff)
        elif kind != "name":
            raise ParseError("expected a term", position)
        # mono
        e = parse_varpow()
        exps = tuple(a + b for a, b in zip(exps, e))
        while peek()[0] == "op" and peek()[1] == "*":
            advance()
            if peek()[0] != "name":
                raise ParseError("expected a variable after '*'", peek()[2])
            e = parse_varpow()
            exps = tuple(a + b for a, b in zip(exps, e))
        mono = ring.monomial(exps)
        return mono if coeff is None else mono * ring.const(coeff)

    result = ring.zero()
    sign = 1
    kind, value, position = peek()
    if kind == "op" and value in "+-":
        sign = -1 if value == "-" else 1
        advance()
    while True:
        term = parse_term()
        result = result + (term if sign == 1 else -term)
        kind, value, position = peek()
        if kind == "end":
            return result
        if kind == "op" and value in "+-":
            sign = -1 if value == "-" else 1
            advance()
            continue
        raise ParseError(f"expected '+' or '-', found {value!r}", position)


def parse_poly(text: str, variables: Sequence[str] = DEFAULT_VARIABLES, field=QQ) -> Poly:
    """Parse an expression in the standard grammar into canonical form."""
    return PolyRing(variables, field).parse(text)


# ---------------------------------------------------------------------------
# determinants, resultants, valuations
# ---------------------------------------------------------------------------


def _det_cofactor(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    ring = rows[0][0].ring
    total = ring.zero()
    for j in range(n):
        entry = rows[0][j]
        if entry.is_zero:
            continue
        minor = [[row[k] for k in range(n) if k != j] for row in rows[1:]]
        cof = entry * _det_cofactor(minor)
        total = total + (cof if j % 2 == 0 else -cof)
    return total


def exact_div(f: Poly, g: Poly) -> Poly:
    """Exact quotient f/g in the polynomial ring; raises if not divisible."""
    if g.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    ring = f.ring
    if g.ring != ring:
        raise DomainError("mismatched rings in exact_div")
    q = ring.zero()
    r = f
    ge, gc = max(g.terms.items(), key=lambda item: _grevlex_key(item[0]))
    while not r.is_zero:
        re, rc = max(r.terms.items(), key=lambda item: _grevlex_key(item[0]))
        de = tuple(a - b for a, b in zip(re, ge))
        if any(d < 0 for d in de):
            raise DomainError("inexact polynomial division")
        t = ring.monomial(de, rc / gc)
        q = q + t
        r = r - t * g
    return q


def _det_bareiss(rows):
    ring = rows[0][0].ring
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
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                m[i][j] = exact_div(num, prev)
            m[i][k] = ring.zero()
        prev = m[k][k]
    d = m[n - 1][n - 1]
    return d if sign == 1 else -d


def determinant(rows: Sequence[Sequence[Poly]]) -> Poly:
    """Exact determinant of a square matrix of polynomials.

    Cofactor expansion for size <= 4; fraction-free Bareiss elimination
    (valid over an integral domain) for larger matrices.
    """
    n = len(rows)
    if n == 0 or any(len(row) != n for row in rows):
        raise DomainError("determinant needs a nonempty square matrix")
    ring = rows[0][0].ring
    for row in rows:
        for entry in row:
            if entry.ring != ring:
                raise DomainError("matrix entries in mismatched rings")
    if n <= 4:
        return _det_cofactor([list(row) for row in rows])
    return _det_bareiss(rows)


def coefficients_in(f: Poly, var: str) -> list:
    """Coefficients of f as a polynomial in var (degree 0 upward).

    Entries are polynomials in the same ring, not involving var.
    """
    i = f.ring._index[var]
    if f.is_zero:
        return [f.ring.zero()]
    d = f.degree_in(var)
    buckets: list = [dict() for _ in range(d + 1)]
    for e, c in f.terms.items():
        ne = list(e)
        k = ne[i]
        ne[i] = 0
        buckets[k][tuple(ne)] = c
    return [Poly(f.ring, b) for b in buckets]


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
    if f.ring != g.ring:
        raise DomainError("mismatched rings in resultant")
    df, dg = f.degree_in(var), g.degree_in(var)
    if df == 0 and dg == 0:
        raise DomainError(f"neither argument involves {var!r}")
    if df == 0:
        return f ** dg
    if dg == 0:
        return g ** df
    fc = coefficients_in(f, var)[::-1]
    gc = coefficients_in(g, var)[::-1]
    return determinant(sylvester_rows(fc, gc, f.ring.zero()))


def valuation(f: Poly, var: str = None):
    """Least exponent of var with a nonzero coefficient; INFINITY for 0.

    f must be univariate in var (which defaults to the only variable used).
    """
    if f.is_zero:
        return INFINITY
    used = f.variables_used()
    if var is None:
        if len(used) > 1:
            raise DomainError("polynomial is not univariate; name the variable")
        var = used[0] if used else f.ring.variables[0]
    else:
        if any(u != var for u in used):
            raise DomainError(f"polynomial involves more than {var!r}")
    i = f.ring._index[var]
    return min(e[i] for e in f.terms)


def factorial_scalar(field, k: int):
    out = field.one
    for i in range(2, k + 1):
        out = out * i
    return out
