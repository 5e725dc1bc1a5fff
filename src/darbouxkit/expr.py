"""Exact symbolic expression kernel.

Expressions are immutable trees over Gaussian-rational constants, the
independent variable ``x``, named parameters (constants under the
derivation), named symbols whose derivatives come from a
:class:`DerivationTable`, radicals, and applications of ``exp``, the
kernel's only function.

Normalization rewrites any expression as a ratio of expanded
multivariate polynomials with Gaussian-rational coefficients.  Radical
symbols carry their defining relation ``s**2 == square`` and the
relation is applied during normalization.  Zero-testing is sound but
not complete: if ``normalize(a - b)`` is the zero constant then ``a``
equals ``b``, but equal expressions can differ in normal form when they
need ``exp`` identities or a polynomial GCD (see :func:`normalize`).

Fractional powers never appear as free exponents; they enter only
through radical symbols.

The S-expression reader, :func:`parse_sexpr`, checks the arity and the
argument kinds of every list and raises :class:`KitError` on malformed text.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Union

# numpy, bound by the first :func:`evaluate` call: the exact kernel never
# loads it
np = None

Scalar = Union[int, Fraction, "GaussRat"]


class KitError(Exception):
    """Base class for all errors raised by this package."""


class Record:
    """Base class of the package's immutable records.

    A subclass declares its fields as annotations, in order; a class
    attribute of the same name in its own body is the field's default.
    ``__init__`` binds the arguments and then runs ``__post_init__``, if
    the subclass has one.  Records compare, hash and print by their
    fields, as frozen dataclasses do, and refuse assignment;
    :meth:`replace` is the copy with some fields changed, validated again.
    """

    _fields = {}.keys()  # in order, and compared as a set
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = dict.fromkeys(cls.__annotations__).keys()
        cls._defaults = {key: vars(cls)[key] for key in cls._fields if key in vars(cls)}

    def __init__(self, *args, **kwargs):
        given = dict(zip(self._fields, args), **kwargs)
        values = {**self._defaults, **given}
        # surplus or repeated arguments shrink given; unknown or missing fields show in values
        if len(given) < len(args) + len(kwargs) or values.keys() != self._fields:
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(self._fields)}; "
                            f"got {len(args)} positional arguments and the keywords {list(kwargs)}")
        self.__dict__.update(values)
        if hasattr(self, "__post_init__"):
            self.__post_init__()

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def replace(self, **changes) -> Record:
        """A copy with the given fields changed, built by ``__init__``."""
        return type(self)(**dict(zip(self._fields, self._values()), **changes))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        body = ", ".join(f"{key}={value!r}" for key, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, key, value):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {key!r}")

    def __delattr__(self, key):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {key!r}")


class UnknownSymbol(KitError):
    """A symbol was differentiated without a derivation-table entry."""


class UnboundSymbol(KitError):
    """A symbol was evaluated without a numeric binding."""


class EvalSingularity(KitError):
    """Numeric evaluation hit a division by zero."""


class DivisionByZeroExpr(KitError):
    """A denominator normalized to the zero expression."""


class GaussRat:
    """A Gaussian rational ``(a + b*i)/d`` stored as reduced integers.

    ``d > 0`` and ``gcd(a, b, d) == 1``, so each value has exactly one
    representation and equal values hash equal.  Integer values take the
    ``d == 1`` paths, which need no ``gcd``.  ``re`` and ``im`` return the
    parts as Fractions.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re: Scalar = 0, im: Scalar = 0):
        if type(re) is int and type(im) is int:
            self._a, self._b, self._d = re, im, 1
            return
        if isinstance(re, GaussRat):
            re, im = re.re, re.im + Fraction(im)
        re, im = Fraction(re), Fraction(im)
        # lowest-terms parts over the lcm of their denominators are reduced
        d = lcm(re.denominator, im.denominator)
        self._a = re.numerator * (d // re.denominator)
        self._b = im.numerator * (d // im.denominator)
        self._d = d

    @staticmethod
    def _make(a: int, b: int, d: int) -> "GaussRat":
        """``(a + b*i)/d`` for ``d > 0``, reduced by a gcd unless ``d == 1``."""
        if d != 1:
            g = gcd(a, b, d)
            if g != 1:
                a, b, d = a // g, b // g, d // g
        out = object.__new__(GaussRat)
        out._a = a
        out._b = b
        out._d = d
        return out

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    def __repr__(self):
        return f"GaussRat({self.re!r}, {self.im!r})"

    def __eq__(self, other):
        if isinstance(other, GaussRat):
            return self._a == other._a and self._b == other._b and self._d == other._d
        if isinstance(other, int):
            return self._b == 0 and self._d == 1 and self._a == other
        if isinstance(other, Fraction):
            return (self._b == 0 and self._a == other.numerator
                    and self._d == other.denominator)
        return NotImplemented

    def __hash__(self):
        # a real value hashes as the equal int or Fraction does
        if self._b == 0:
            return hash(self._a) if self._d == 1 else hash(Fraction(self._a, self._d))
        return hash((self._a, self._b, self._d))

    def __add__(self, other: "GaussRat") -> "GaussRat":
        d, e = self._d, other._d
        if d == e:
            return GaussRat._make(self._a + other._a, self._b + other._b, d)
        return GaussRat._make(self._a * e + other._a * d, self._b * e + other._b * d, d * e)

    def __sub__(self, other: "GaussRat") -> "GaussRat":
        d, e = self._d, other._d
        if d == e:
            return GaussRat._make(self._a - other._a, self._b - other._b, d)
        return GaussRat._make(self._a * e - other._a * d, self._b * e - other._b * d, d * e)

    def __neg__(self) -> "GaussRat":
        return GaussRat._make(-self._a, -self._b, self._d)

    def __mul__(self, other: "GaussRat") -> "GaussRat":
        a, b, c, e = self._a, self._b, other._a, other._b
        if b == 0 and e == 0:
            return GaussRat._make(a * c, 0, self._d * other._d)
        return GaussRat._make(a * c - b * e, a * e + b * c, self._d * other._d)

    def __truediv__(self, other: "GaussRat") -> "GaussRat":
        # (a + b i)/d / ((c + e i)/f) = (a + b i)(c - e i) f / (d (c^2 + e^2))
        a, b, c, e, f = self._a, self._b, other._a, other._b, other._d
        if e == 0:
            if c == 0:
                raise DivisionByZeroExpr("division by zero Gaussian rational")
            if c < 0:
                a, b, c = -a, -b, -c
            return GaussRat._make(a * f, b * f, self._d * c)
        n = c * c + e * e
        return GaussRat._make((a * c + b * e) * f, (b * c - a * e) * f, self._d * n)

    def is_zero(self) -> bool:
        return self._a == 0 and self._b == 0

    def to_complex(self) -> complex:
        # int true division rounds once, as Fraction.__float__ does
        return complex(self._a / self._d, self._b / self._d)


_UNIT = GaussRat(1)


# ---------------------------------------------------------------------------
# Expression nodes
# ---------------------------------------------------------------------------


class Expr:
    """Immutable expression tree node.

    Arithmetic operators build trees without simplifying; call
    :func:`normalize` for the canonical form.  Structural equality and
    hashing are supported so expressions can key dictionaries.
    """

    __slots__ = ("_h",)

    def _key(self) -> tuple:
        raise NotImplementedError

    # a node's hash is built once, bottom-up: its __init__ stores it, from
    # its tag and its children's stored hashes, so no tree is too deep to
    # hash.  Only __eq__ recurses through the keys, and a tree too deep for
    # the stack (a sum built term by term) falls back on an iterative walk

    def __eq__(self, other):
        try:
            return type(self) is type(other) and self._key() == other._key()
        except RecursionError:
            return _eq_walk(self, other)

    def __hash__(self):
        return self._h

    def __repr__(self):
        return f"<Expr {to_sexpr(self)}>"

    # -- operator sugar ----------------------------------------------------

    def __add__(self, other):
        return Add((self, as_expr(other)))

    def __radd__(self, other):
        return Add((as_expr(other), self))

    def __sub__(self, other):
        return Add((self, Mul((const(-1), as_expr(other)))))

    def __rsub__(self, other):
        return Add((as_expr(other), Mul((const(-1), self))))

    def __mul__(self, other):
        return Mul((self, as_expr(other)))

    def __rmul__(self, other):
        return Mul((as_expr(other), self))

    def __truediv__(self, other):
        return Div(self, as_expr(other))

    def __rtruediv__(self, other):
        return Div(as_expr(other), self)

    def __pow__(self, exponent: int):
        return Pow(self, exponent)

    def __neg__(self):
        return Mul((const(-1), self))


def _eq_walk(a: Expr, b: Expr) -> bool:
    """``a == b`` without recursion, over a stack of key entries."""
    pairs = [(a, b)]
    while pairs:
        a, b = pairs.pop()
        if a is b:
            continue
        if isinstance(a, Expr) and type(a) is type(b):
            ka, kb = a._key(), b._key()
            if len(ka) != len(kb):
                return False
            pairs += zip(ka, kb)
        elif a != b:
            return False
    return True


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value: Scalar):
        self.value = v = value if isinstance(value, GaussRat) else GaussRat(value)
        self._h = hash((v._a, v._b, v._d))

    def _key(self):
        return (self.value,)


class Var(Expr):
    """The independent variable ``x``."""

    __slots__ = ()

    def __init__(self):
        self._h = hash("Var")

    def _key(self):
        return ()


class Param(Expr):
    """A named constant parameter (derivative zero)."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name
        self._h = hash(("Param", name))

    def _key(self):
        return (self.name,)


class Sym(Expr):
    """A named symbol whose derivative is looked up in a DerivationTable."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name
        self._h = hash(("Sym", name))

    def _key(self):
        return (self.name,)


class Radical(Expr):
    """A symbol ``s`` constrained by ``s**2 == square``.

    The relation travels with the node and is applied during
    normalization, so ``s**2 - square`` normalizes to zero.  Its
    derivative defaults to ``square' / (2*square) * s`` unless the
    derivation table overrides it.
    """

    __slots__ = ("name", "square")

    def __init__(self, name: str, square: Expr):
        self.name = name
        self.square = square
        self._h = hash(("Radical", name, square))

    def _key(self):
        return (self.name, self.square)


class Add(Expr):
    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[Expr]):
        self.terms = terms = tuple(terms)
        self._h = hash(("Add", terms))

    def _key(self):
        return self.terms


class Mul(Expr):
    __slots__ = ("factors",)

    def __init__(self, factors: Iterable[Expr]):
        self.factors = factors = tuple(factors)
        self._h = hash(("Mul", factors))

    def _key(self):
        return self.factors


class Pow(Expr):
    __slots__ = ("base", "exponent")

    def __init__(self, base: Expr, exponent: int):
        if not isinstance(exponent, int):
            raise TypeError(
                "only integer exponents are allowed; use a Radical for square roots"
            )
        self.base = base
        self.exponent = exponent
        self._h = hash(("Pow", base, exponent))

    def _key(self):
        return (self.base, self.exponent)


class Div(Expr):
    __slots__ = ("num", "den")

    def __init__(self, num: Expr, den: Expr):
        self.num = num
        self.den = den
        self._h = hash(("Div", num, den))

    def _key(self):
        return (self.num, self.den)


class Apply(Expr):
    """Application of ``exp``, the only function, to one argument.

    ``func`` stays because the S-expression format names the function,
    ``(apply exp arg)``; any other name raises :class:`KitError`.
    """

    __slots__ = ("func", "arg")

    def __init__(self, func: str, arg: Expr):
        if func != "exp":
            raise KitError(f"unknown function {func!r}: exp is the only one")
        self.func = func
        self.arg = arg
        self._h = hash(("Apply", func, arg))

    def _key(self):
        return (self.func, self.arg)


# -- constructors ----------------------------------------------------------

X = Var()
I = Const(GaussRat(0, 1))
ZERO = Const(0)
ONE = Const(1)


def const(value: Scalar) -> Const:
    return Const(value)


def rat(num: int, den: int) -> Const:
    return Const(Fraction(num, den))


def param(name: str) -> Param:
    return Param(name)


def sym(name: str) -> Sym:
    return Sym(name)


def exp(arg) -> Expr:
    return Apply("exp", as_expr(arg))


def as_expr(value) -> Expr:
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, Fraction, GaussRat)):
        return Const(value)
    raise TypeError(f"cannot interpret {value!r} as an expression")


# ---------------------------------------------------------------------------
# Derivation tables
# ---------------------------------------------------------------------------


class DerivationTable:
    """Immutable map from symbol name to its derivative expression.

    Entries may reference x, parameters, radicals, and symbols that are
    themselves in the table, so derivatives of arbitrary order stay
    resolvable (or fail loudly with UnknownSymbol).  Tables compare and
    hash by their entries.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: Mapping[str, Expr] | None = None):
        self._entries = dict(entries or {})

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def get(self, name: str) -> Expr | None:
        return self._entries.get(name)

    def items(self):
        return self._entries.items()

    def extended(self, entries: Mapping[str, Expr]) -> "DerivationTable":
        merged = dict(self._entries)
        merged.update(entries)
        return DerivationTable(merged)

    def __eq__(self, other):
        if isinstance(other, DerivationTable):
            return self._entries == other._entries
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self._entries.items()))

    def __repr__(self):
        names = ", ".join(sorted(self._entries))
        return f"DerivationTable({names})"


EMPTY_TABLE = DerivationTable()


def symbol_tower(base: str, depth: int) -> dict[str, Expr]:
    """Derivative chain ``base -> base_d1 -> ... -> base_d<depth>``.

    The deepest symbol has no entry, so differentiating past the tower
    raises UnknownSymbol instead of silently truncating.
    """
    entries: dict[str, Expr] = {}
    prev = base
    for k in range(1, depth + 1):
        nxt = f"{base}_d{k}"
        entries[prev] = Sym(nxt)
        prev = nxt
    return entries


# ---------------------------------------------------------------------------
# Normal form: rational functions over expanded polynomials
# ---------------------------------------------------------------------------
#
# A generator is its own rank key, ``(rank, name, text)``:
#   (0, "x", "") for x, (1, name, "") for a parameter, (2, name, "") for
#   a symbol, and, carrying the leaf node itself as a fourth entry,
#   (3, name, to_sexpr(square), node) for a radical and
#   (4, func, to_sexpr(normalized arg), node) for an application.
# Plain tuple order is therefore the rank order.  _gen builds the keys;
# the radical helpers (_poly_has_radical, _poly_radical_gens,
# _reduce_radicals) read rank 3, and depends_on_x reads ranks 0, 2, 3
# and 4.  Equal first three entries mean equal leaves, so the node never
# decides a comparison.
#
# A monomial is its own graded lexicographic key, ``(degree, factors)``,
# with the (generator, positive power) factors in descending generator
# order: tuples compare by total degree, then as the dense exponent
# vectors do from the highest-ranked generator down.  That is a monomial
# order (total, the empty monomial least, preserved by multiplication),
# so the leading term of a product is the product of the leading terms
# and division by leading terms finds every exact quotient.
#
# A polynomial maps monomials to nonzero GaussRat coefficients.  Nearly
# all coefficients are integers (the d == 1 paths of GaussRat); they are
# immutable and shared between polynomials, and _UNIT is the coefficient
# of every generator and of _POLY_ONE.
#
# Generators are not interned to small ints: the order would then follow
# the order in which they were first seen, and normal forms would depend
# on cache state.
#
# Every _RatFunc has radical powers at most one and a radical-free
# denominator.  So a product of polynomials needs reduction only when
# both factors hold a radical, and _rf_mul calls _rf only for fractions.
# A sum adds the numerators of a run of terms over one denominator D (or
# over one) unreduced and calls _rf once, when another denominator comes
# or at the end.  A fold reducing after every term gives the same: its
# sum so far is num/D with a monomial and a constant struck from both,
# or an exact quotient of num by D, and either way adding n/D reduces
# num + n over D, since _rf(g X, g Y) = _rf(X, Y) for such a g and exact
# quotients are unique.  _rf is idempotent on its own results, so an Add
# or Mul in the first place of one of its own kind folds as one with it:
# (a + b) + c is the fold 0 + a + b + c.  Only that left spine is
# spliced.  Without a GCD the fold is not associative on fractions, so
# a + (b + c) must fold b + c first, as before; splicing there would
# change normal forms and make them depend on cache state.
#
# Equal terms of normal forms are one node: _poly_to_expr builds the term
# of a (monomial, coefficient) pair once and keeps it in _TERM_CACHE.  A
# term is built from its key alone, so sharing changes which objects a
# normal form holds, never its structure, and it saves rebuilding and
# rehashing the term.
#
# Three caches hold the kernel's reusable work: _NORMAL_CACHE (inputs and
# normal forms to their normal form, and every sum, power and quotient
# that _to_ratfunc converts to its _RatFunc alone, as (None, rf), so a
# shared one converts once), _TERM_CACHE (term nodes) and _TEXT_CACHE
# (the printed text of roots and of the terms of printed normal forms).
# One bound, _NORMAL_CACHE_LIMIT, holds for each, and one rule,
# _bound_caches, clears all three together once any of them passes it,
# whether normalizing or printing filled it.

Gen = tuple
Mono = tuple
Poly = dict


def _gen(leaf: Expr) -> Gen:
    """The generator of a leaf node (x, parameter, symbol, radical, or an
    application whose argument is in normal form)."""
    if isinstance(leaf, Var):
        return (0, "x", "")
    if isinstance(leaf, Param):
        return (1, leaf.name, "")
    if isinstance(leaf, Sym):
        return (2, leaf.name, "")
    if isinstance(leaf, Radical):
        return (3, leaf.name, to_sexpr(leaf.square), leaf)
    return (4, leaf.func, to_sexpr(leaf.arg), leaf)


_EMPTY_MONO: Mono = (0, ())


def _poly_const(c: GaussRat) -> Poly:
    return {} if c.is_zero() else {_EMPTY_MONO: c}


_POLY_ONE = {_EMPTY_MONO: _UNIT}


def _poly_gen(gen: Gen) -> Poly:
    return {(1, ((gen, 1),)): _UNIT}


def _poly_add(a: Poly, b: Poly) -> Poly:
    return _poly_add_into(dict(a), b)


def _poly_add_into(out: Poly, b: Poly) -> Poly:
    """Add ``b`` into ``out`` in place; ``out`` must be the caller's own."""
    for mono, coeff in b.items():
        s = out.get(mono)
        if s is None:
            out[mono] = coeff
        else:
            s = s + coeff
            if s.is_zero():
                del out[mono]
            else:
                out[mono] = s
    return out


def _poly_neg(a: Poly) -> Poly:
    return {m: -c for m, c in a.items()}


def _mono_mul(a: Mono, b: Mono) -> Mono:
    # factors are in descending generator order, so products are merges
    if not a[0]:
        return b
    if not b[0]:
        return a
    fa, fb = a[1], b[1]
    out = []
    i = j = 0
    la, lb = len(fa), len(fb)
    while i < la and j < lb:
        ga, pa = fa[i]
        gb, pb = fb[j]
        if ga == gb:
            out.append((ga, pa + pb))
            i += 1
            j += 1
        elif ga > gb:
            out.append(fa[i])
            i += 1
        else:
            out.append(fb[j])
            j += 1
    out.extend(fa[i:])
    out.extend(fb[j:])
    return (a[0] + b[0], tuple(out))


def _poly_mul(a: Poly, b: Poly) -> Poly:
    if a == _POLY_ONE:
        return dict(b)
    if b == _POLY_ONE:
        return dict(a)
    # a one-term factor maps distinct monomials to distinct ones, and no
    # product of nonzero coefficients is zero: the loop below would meet
    # no collision, and it keeps the other factor's order too
    if len(a) == 1:
        (ma, ca), = a.items()
        return {_mono_mul(ma, mb): ca * cb for mb, cb in b.items()}
    if len(b) == 1:
        (mb, cb), = b.items()
        return {_mono_mul(ma, mb): ca * cb for ma, ca in a.items()}
    out: Poly = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            mono = _mono_mul(ma, mb)
            coeff = ca * cb
            s = out.get(mono)
            if s is None:
                out[mono] = coeff
            else:
                s = s + coeff
                if s.is_zero():
                    del out[mono]
                else:
                    out[mono] = s
    return out


def _poly_scale(a: Poly, c: GaussRat) -> Poly:
    if c.is_zero():
        return {}
    return {m: v * c for m, v in a.items()}


def _poly_is_zero(a: Poly) -> bool:
    return not a


def _mono_div(a: Mono, b: Mono) -> Mono | None:
    """Exponentwise a / b, or None when not divisible."""
    if not b[0]:
        return a
    powers = dict(b[1])
    out = []
    for g, p in a[1]:
        have = p - powers.pop(g, 0)
        if have < 0:
            return None
        if have:
            out.append((g, have))
    if powers:
        return None
    return (a[0] - b[0], tuple(out))


def _poly_exact_div(num: Poly, den: Poly) -> Poly | None:
    """Quotient num/den, or None when the division is not exact.

    In a monomial order the leading monomial of every multiple of
    ``den`` is divisible by that of ``den``, so division by leading terms
    meets an indivisible remainder only when ``den`` does not divide
    ``num``.  The least monomial of an exact quotient is
    ``min(num) / min(den)``, and quotient monomials come out in
    descending order, so one below that floor proves the division
    inexact.
    """
    if not num:
        return {}
    if len(den) == 1:
        (dm, dc), = den.items()
        out = {}
        for mono, coeff in num.items():
            qm = _mono_div(mono, dm)
            if qm is None:
                return None
            out[qm] = coeff / dc
        return out
    floor = _mono_div(min(num), min(den))
    if floor is None:
        return None
    quot: Poly = {}
    rem = dict(num)
    den_lead = max(den)
    den_lc = den[den_lead]
    while rem:
        lead = max(rem)
        qm = _mono_div(lead, den_lead)
        if qm is None or qm < floor:
            return None
        qc = rem[lead] / den_lc
        quot[qm] = qc
        for mono, coeff in den.items():
            key = _mono_mul(qm, mono)
            s = rem.get(key)
            if s is None:
                s = -qc * coeff
            else:
                s = s - qc * coeff
            if s.is_zero():
                rem.pop(key, None)
            else:
                rem[key] = s
    return quot


def _poly_cancel_content(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """Strip the common monomial factor of two polynomials, reading the
    denominator (most often one monomial) first; a constant term has none."""
    common: dict | None = None
    for poly in (den, num):
        for degree, factors in poly:
            if not degree:
                return num, den
            if common is None:
                common = dict(factors)
                continue
            kept = {}
            for g, p in factors:
                c = common.get(g)
                if c is not None:
                    kept[g] = p if p < c else c
            if not kept:
                return num, den
            common = kept
    factor = (sum(common.values()), tuple(sorted(common.items(), reverse=True)))

    def strip(poly: Poly) -> Poly:
        return {_mono_div(mono, factor): coeff for mono, coeff in poly.items()}

    return strip(num), strip(den)


def _poly_has_radical(a: Poly) -> bool:
    return any(g[0] == 3 for mono in a for g, _ in mono[1])


def _poly_radical_gens(a: Poly) -> set[Gen]:
    gens = set()
    for mono in a:
        for g, _ in mono[1]:
            if g[0] == 3:
                gens.add(g)
    return gens


class _RatFunc:
    """Reduced fraction of polynomials; denominators are radical-free."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly):
        self.num = num
        self.den = den


def _reduce_radicals(a: Poly) -> Poly:
    """Rewrite every radical power >= 2 via its defining square, in place."""
    while True:
        target = None
        for mono, coeff in a.items():
            for g, p in mono[1]:
                if g[0] == 3 and p >= 2:
                    target = (mono, coeff, g, p)
                    break
            if target:
                break
        if target is None:
            return a
        mono, coeff, g, p = target
        power = p // 2
        rest = _mono_div(mono, (2 * power, ((g, 2 * power),)))
        square_rf = _to_ratfunc(g[3].square)
        if not _poly_is_zero(square_rf.den) and square_rf.den != _POLY_ONE:
            raise KitError(
                f"radical {g[1]!r} has a non-polynomial square; normalize it first"
            )
        if _poly_radical_gens(square_rf.num) & {g}:
            raise KitError(f"radical {g[1]!r} appears in its own defining square")
        repl: Poly = dict(_POLY_ONE)
        for _ in range(power):
            repl = _poly_mul(repl, square_rf.num)
        del a[mono]
        a = _poly_add_into(a, _poly_mul({rest: coeff}, repl))


def _rf(num: Poly, den: Poly) -> _RatFunc:
    """``num/den`` with radicals reduced and out of the denominator, free of
    common monomial factors, divided out if exact, and monic; without a
    GCD other common factors stay."""
    if _poly_is_zero(den):
        raise DivisionByZeroExpr("denominator normalized to zero")
    num_p = _reduce_radicals(dict(num))
    den_p = _reduce_radicals(dict(den))
    # rationalize radicals out of the denominator, one radical at a time
    while True:
        rads = _poly_radical_gens(den_p)
        if not rads:
            break
        g = min(rads)
        g_mono = (1, ((g, 1),))
        plain: Poly = {}
        radpart: Poly = {}
        # radical powers are at most one here
        for mono, coeff in den_p.items():
            stripped = _mono_div(mono, g_mono)
            if stripped is None:
                plain[mono] = coeff
            else:
                radpart[stripped] = coeff
        # den = plain + radpart*g ; multiply by the conjugate plain - radpart*g
        conj = _poly_add_into(plain, _poly_mul(_poly_neg(radpart), {g_mono: _UNIT}))
        num_p = _reduce_radicals(_poly_mul(num_p, conj))
        den_p = _reduce_radicals(_poly_mul(den_p, conj))
        if _poly_is_zero(den_p):
            raise DivisionByZeroExpr("denominator normalized to zero")
    if _poly_is_zero(num_p):
        return _RatFunc({}, dict(_POLY_ONE))
    if den_p != _POLY_ONE:
        num_p, den_p = _poly_cancel_content(num_p, den_p)
        # with the common monomial struck, some numerator term lacks a power
        # of a one-term, non-constant denominator, which so never divides
        if len(den_p) > 1 or not min(den_p)[0]:
            quotient = _poly_exact_div(num_p, den_p)
            if quotient is not None:
                return _RatFunc(quotient, dict(_POLY_ONE))
    scale = den_p[max(den_p)]
    if not (scale == _UNIT):
        inv = _UNIT / scale
        num_p = _poly_scale(num_p, inv)
        den_p = _poly_scale(den_p, inv)
    return _RatFunc(num_p, den_p)


def _rf_same_den_or_divisible(a: _RatFunc, b: _RatFunc):
    """(num_a', num_b', den) for the cheap common-denominator cases."""
    if a.den == b.den:
        return a.num, b.num, a.den
    q = _poly_exact_div(b.den, a.den)
    if q is not None:
        return _poly_mul(a.num, q), b.num, b.den
    q = _poly_exact_div(a.den, b.den)
    if q is not None:
        return a.num, _poly_mul(b.num, q), a.den
    return None


def _rf_add(a: _RatFunc, b: _RatFunc) -> _RatFunc:
    shared = _rf_same_den_or_divisible(a, b)
    if shared is not None:
        num_a, num_b, den = shared
        return _rf(_poly_add(num_a, num_b), dict(den))
    num = _poly_add_into(_poly_mul(a.num, b.den), _poly_mul(b.num, a.den))
    return _rf(num, _poly_mul(a.den, b.den))


def _rf_mul(a: _RatFunc, b: _RatFunc) -> _RatFunc:
    if a.den == _POLY_ONE and b.den == _POLY_ONE:
        # radical powers are at most one in each factor
        prod = _poly_mul(a.num, b.num)
        if _poly_has_radical(a.num) and _poly_has_radical(b.num):
            prod = _reduce_radicals(prod)
        return _RatFunc(prod, dict(_POLY_ONE))
    return _rf(_poly_mul(a.num, b.num), _poly_mul(a.den, b.den))


def _rf_div(a: _RatFunc, b: _RatFunc) -> _RatFunc:
    if _poly_is_zero(b.num):
        raise DivisionByZeroExpr("denominator normalized to zero")
    return _rf(_poly_mul(a.num, b.den), _poly_mul(a.den, b.num))


def _rf_pow(a: _RatFunc, n: int) -> _RatFunc:
    if n == 0:
        return _RatFunc(dict(_POLY_ONE), dict(_POLY_ONE))
    if n < 0:
        if _poly_is_zero(a.num):
            raise DivisionByZeroExpr("zero raised to a negative power")
        a = _RatFunc(a.den, a.num)
        n = -n
    out = _RatFunc(dict(_POLY_ONE), dict(_POLY_ONE))
    for _ in range(n):
        out = _rf_mul(out, a)
    return out


def _operands(e: Add | Mul) -> tuple:
    return e.terms if type(e) is Add else e.factors


def _left_spine(e: Add | Mul) -> list[Expr]:
    """The operands of ``e``, with a first operand of its type that
    _NORMAL_CACHE lacks replaced by its own operands, down the left spine."""
    kind = type(e)
    ops = _operands(e)
    rests = []
    while ops and type(ops[0]) is kind and ops[0] not in _NORMAL_CACHE:
        rests.append(ops[1:])
        ops = _operands(ops[0])
    out = list(ops)
    for rest in reversed(rests):
        out.extend(rest)
    return out


def _to_ratfunc(e: Expr) -> _RatFunc:
    cached = _NORMAL_CACHE.get(e)
    if cached is not None:
        return cached[1]
    if isinstance(e, Const):
        return _RatFunc(_poly_const(e.value), dict(_POLY_ONE))
    if isinstance(e, (Var, Param, Sym, Radical)):
        return _RatFunc(_poly_gen(_gen(e)), dict(_POLY_ONE))
    if isinstance(e, Add):
        # num/den is the sum so far, unreduced after a run over den != 1; a
        # zero sum takes the next term as it is.  num is a copy or a fresh
        # _rf result, so terms add in place
        num, den, reduced = {}, dict(_POLY_ONE), True
        for t in _left_spine(e):
            b = _to_ratfunc(t)
            if not num:
                num, den, reduced = dict(b.num), b.den, True
            elif b.den == den:
                _poly_add_into(num, b.num)
                reduced = den == _POLY_ONE
            else:
                out = _rf_add(_RatFunc(num, den) if reduced else _rf(num, den), b)
                num, den, reduced = out.num, out.den, True
        return _keep(e, _RatFunc(num, den) if reduced else _rf(num, den))
    if isinstance(e, Mul):
        factors = _left_spine(e)
        if not factors:
            return _RatFunc(dict(_POLY_ONE), dict(_POLY_ONE))
        # may be a cached _RatFunc: products never write into an operand
        out = _to_ratfunc(factors[0])
        for f in factors[1:]:
            out = _rf_mul(out, _to_ratfunc(f))
        return out
    if isinstance(e, Pow):
        return _keep(e, _rf_pow(_to_ratfunc(e.base), e.exponent))
    if isinstance(e, Div):
        return _keep(e, _rf_div(_to_ratfunc(e.num), _to_ratfunc(e.den)))
    if isinstance(e, Apply):
        arg = normalize(e.arg)
        if isinstance(arg, Const) and arg.value.is_zero():
            return _RatFunc(dict(_POLY_ONE), dict(_POLY_ONE))
        return _RatFunc(_poly_gen(_gen(Apply(e.func, arg))), dict(_POLY_ONE))
    raise TypeError(f"unknown node {e!r}")


def _keep(e: Add | Pow | Div, rf: _RatFunc) -> _RatFunc:
    """Cache ``rf``, which depends on ``e`` alone, with no normal form."""
    _bound_caches()
    _NORMAL_CACHE[e] = (None, rf)
    return rf


def _gen_to_expr(gen: Gen) -> Expr:
    rank = gen[0]
    if rank == 0:
        return X
    if rank == 1:
        return Param(gen[1])
    if rank == 2:
        return Sym(gen[1])
    return gen[3]


def _term_to_expr(mono: Mono, coeff: GaussRat) -> Expr:
    factors: list[Expr] = []
    if not (coeff == _UNIT) or not mono[0]:
        factors.append(Const(coeff))
    # factors in ascending generator order
    for gen, power in reversed(mono[1]):
        base = _gen_to_expr(gen)
        factors.append(base if power == 1 else Pow(base, power))
    return factors[0] if len(factors) == 1 else Mul(tuple(factors))


def _poly_to_expr(p: Poly) -> Expr:
    if not p:
        return ZERO
    terms = []
    for mono in sorted(p, reverse=True):
        coeff = p[mono]
        key = (mono, coeff._a, coeff._b, coeff._d)
        term = _TERM_CACHE.get(key)
        if term is None:
            term = _TERM_CACHE[key] = _term_to_expr(mono, coeff)
        terms.append(term)
    return terms[0] if len(terms) == 1 else Add(tuple(terms))


# input and normal form -> (normal form, its _RatFunc), and a converted
# sum, power or quotient -> (None, its _RatFunc); the polynomials are
# shared by every hit and must never be mutated
_NORMAL_CACHE: dict[Expr, tuple[Expr | None, _RatFunc]] = {}
_NORMAL_CACHE_LIMIT = 1 << 16

# (monomial, coefficient parts) -> its term node
_TERM_CACHE: dict[tuple, Expr] = {}

# printed root, or term of a printed normal form -> its S-expression text
_TEXT_CACHE: dict[Expr, str] = {}


def _bound_caches() -> None:
    """Clear the normal-form, term and text caches together once any of
    them holds more than _NORMAL_CACHE_LIMIT entries."""
    limit = _NORMAL_CACHE_LIMIT
    if len(_NORMAL_CACHE) > limit or len(_TERM_CACHE) > limit or len(_TEXT_CACHE) > limit:
        _NORMAL_CACHE.clear()
        _TERM_CACHE.clear()
        _TEXT_CACHE.clear()


def normalize(e: Expr) -> Expr:
    """Return the normal form of ``e``.

    The result is an expanded polynomial, or a Div of two expanded
    polynomials.  The denominator is radical-free and monic in the graded
    lexicographic monomial order of the normal-form section; the two
    share no monomial factor, and the denominator does not divide the
    numerator.
    Idempotent and sound: a zero result proves ``e`` identically zero
    under the radical relations it contains.  Not complete: ``exp``
    generators are not combined (so ``exp(x)*exp(-x) - 1`` stays
    nonzero), and without a polynomial GCD a fraction may keep a common
    factor, so equal values can have different nonzero normal forms.
    """
    n, rf = _NORMAL_CACHE.get(e, (None, None))
    if n is not None:
        return n
    # a converted sum, power or quotient holds its _RatFunc alone
    return _remember(e, _to_ratfunc(e) if rf is None else rf)


def _remember(e: Expr, rf: _RatFunc) -> Expr:
    """Cache ``rf`` as the normal form of ``e`` and of itself; return it."""
    if rf.den == _POLY_ONE:
        out = _poly_to_expr(rf.num)
    elif _poly_is_zero(rf.num):
        out = ZERO
    else:
        out = Div(_poly_to_expr(rf.num), _poly_to_expr(rf.den))
    _bound_caches()
    _NORMAL_CACHE[e] = _NORMAL_CACHE[out] = (out, rf)
    return out


def is_zero(e: Expr) -> bool:
    """Sound, not complete: True proves ``e`` zero (see :func:`normalize`)."""
    n = normalize(e)
    return isinstance(n, Const) and n.value.is_zero()


def equal(a: Expr, b: Expr) -> bool:
    return is_zero(a - b)


# ---------------------------------------------------------------------------
# Differentiation
# ---------------------------------------------------------------------------


def differentiate(e: Expr, table: DerivationTable = EMPTY_TABLE) -> Expr:
    """Derivative of ``e`` with table rewrites applied, normalized.

    The derivative tree of ``e`` keys the normal-form cache.  When ``e`` is
    a cached normal form ``N/D`` and each of its generators has a
    polynomial derivative, the result is formed on the polynomials as
    ``N'`` or the reduced ``(N' D - N D')/D**2``.  That is what normalizing
    the tree gives: its terms are then products of polynomials, whose
    reduced expansion is unique, and it ends in the same quotient.

    ``e`` is converted first, so that where ``normalize(e)`` raises, so
    does this, even when the derivative tree drops the singular part, as
    in ``differentiate(param("k") / (const(2) - 2))``.  Its sums, powers
    and quotients are cached as converted; no normal form of ``e`` is built.
    """
    _to_ratfunc(e)
    tree = _diff(e, table)
    # one lookup: each compares the new tree with its key node by node
    n, rf = _NORMAL_CACHE.get(tree, (None, None))
    if n is not None:
        return n
    if rf is None:
        rf = _normal_form_derivative(e, table)
    return normalize(tree) if rf is None else _remember(tree, rf)


def _normal_form_derivative(e: Expr, table: DerivationTable) -> _RatFunc | None:
    """The derivative of ``e`` formed on its polynomials; None unless ``e``
    is its own cached normal form and its generators' derivatives are
    polynomials."""
    cached = _NORMAL_CACHE.get(e)
    if cached is None or not (cached[0] is e or cached[0] == e):
        return None
    num, den = cached[1].num, cached[1].den
    d_gens: dict[Gen, Poly] = {}
    for poly in (num, den):
        for mono in poly:
            for g, _ in mono[1]:
                if g not in d_gens:
                    d = _to_ratfunc(_diff(_gen_to_expr(g), table))
                    if d.den != _POLY_ONE:
                        return None
                    d_gens[g] = d.num
    d_num = _poly_derivative(num, d_gens)
    if den == _POLY_ONE:
        return _RatFunc(d_num, dict(_POLY_ONE))
    top = _poly_mul(d_num, den)
    _poly_add_into(top, _poly_neg(_poly_mul(num, _poly_derivative(den, d_gens))))
    return _rf(top, _poly_mul(den, den))


def _poly_derivative(p: Poly, d_gens: dict[Gen, Poly]) -> Poly:
    """The derivative of ``p`` given those of its generators, reduced."""
    out: Poly = {}
    for (degree, factors), coeff in p.items():
        for k, (g, power) in enumerate(factors):
            if not d_gens[g]:
                continue
            rest = factors[:k] + ((g, power - 1),) if power > 1 else factors[:k]
            rest = (degree - 1, rest + factors[k + 1:])
            c = coeff * GaussRat(power) if power > 1 else coeff
            _poly_add_into(out, _poly_mul({rest: c}, d_gens[g]))
    return _reduce_radicals(out)


def _sum(terms: Iterable[Expr]) -> Expr:
    """The one summation rule: the flat sum of the terms that are not ZERO,
    a lone term as itself.  A zero operand changes nothing in the fold,
    since _rf is idempotent on its own results, and a flat sum folds as a
    left-nested one (see _left_spine)."""
    terms = tuple(t for t in terms if t is not ZERO)
    return Add(terms) if len(terms) > 1 else terms[0] if terms else ZERO


def _diff(e: Expr, table: DerivationTable) -> Expr:
    """The derivative tree of ``e``, without the product-, power- and
    quotient-rule terms whose factor derivative is ZERO."""
    if isinstance(e, (Const, Param)):
        return ZERO
    if isinstance(e, Var):
        return ONE
    if isinstance(e, Sym):
        entry = table.get(e.name)
        if entry is None:
            raise UnknownSymbol(f"no derivative registered for symbol {e.name!r}")
        return entry
    if isinstance(e, Radical):
        entry = table.get(e.name)
        if entry is not None:
            return entry
        # s' = square' * s / (2 * square), from s**2 == square
        d = _diff(e.square, table)
        return ZERO if d is ZERO else Div(Mul((d, e)), Mul((const(2), e.square)))
    if isinstance(e, Add):
        return _sum([_diff(t, table) for t in e.terms])
    if isinstance(e, Mul):
        factors = e.factors
        terms = []
        for k, f in enumerate(factors):
            d = _diff(f, table)
            if d is not ZERO:
                terms.append(Mul(factors[:k] + (d,) + factors[k + 1:]))
        return _sum(terms)
    if isinstance(e, Pow):
        d = ZERO if e.exponent == 0 else _diff(e.base, table)
        return ZERO if d is ZERO else Mul((const(e.exponent), Pow(e.base, e.exponent - 1), d))
    if isinstance(e, Div):
        du, dv = _diff(e.num, table), _diff(e.den, table)
        num = _sum([ZERO if du is ZERO else Mul((du, e.den)),
                    ZERO if dv is ZERO else Mul((const(-1), e.num, dv))])
        return ZERO if num is ZERO else Div(num, Pow(e.den, 2))
    if isinstance(e, Apply):
        return Mul((_diff(e.arg, table), e))
    raise TypeError(f"unknown node {e!r}")


# ---------------------------------------------------------------------------
# Evaluation and substitution
# ---------------------------------------------------------------------------


def evaluate(e: Expr, bindings: Mapping[str, complex]) -> complex | np.ndarray:
    """IEEE double-complex value of ``e``; every free name must be bound.

    The independent variable is bound under the key ``"x"``.  Any binding
    may be a complex scalar or a numpy array; array bindings broadcast
    together, as 1-D arrays of one length or as a ``(1, N)`` row of ``x``
    against ``(M, 1)`` columns giving ``(M, N)`` values, and the tree is
    walked once for all of their points, giving an array of the broadcast
    shape (a subtree free of array-bound names stays a scalar).
    ``exp`` is ``numpy.exp``; numpy is imported by the first call.  A zero
    denominator or a zero base of a negative power at any point raises
    :class:`EvalSingularity`.
    """
    global np
    if np is None:
        import numpy as np
    return _evaluate(e, bindings)


def _evaluate(e: Expr, bindings: Mapping[str, complex]) -> complex | np.ndarray:
    if isinstance(e, Const):
        return e.value.to_complex()
    if isinstance(e, Var):
        return _binding(bindings, "x")
    if isinstance(e, (Param, Sym, Radical)):
        return _binding(bindings, e.name)
    if isinstance(e, Add):
        return sum(_evaluate(t, bindings) for t in e.terms)
    if isinstance(e, Mul):
        out = 1 + 0j
        for f in e.factors:
            out = out * _evaluate(f, bindings)
        return out
    if isinstance(e, Pow):
        base = _evaluate(e.base, bindings)
        if e.exponent < 0 and np.any(base == 0):
            raise EvalSingularity("zero base with negative exponent")
        return base ** e.exponent
    if isinstance(e, Div):
        den = _evaluate(e.den, bindings)
        if np.any(den == 0):
            raise EvalSingularity("division by numeric zero")
        return _evaluate(e.num, bindings) / den
    if isinstance(e, Apply):
        return np.exp(_evaluate(e.arg, bindings))
    raise TypeError(f"unknown node {e!r}")


def _binding(bindings: Mapping[str, complex], name: str):
    if name not in bindings:
        raise UnboundSymbol(f"no binding for {name!r}")
    value = bindings[name]
    return value if isinstance(value, np.ndarray) else complex(value)


def substitute(e: Expr, mapping: Mapping[str, Expr]) -> Expr:
    """Simultaneously replace named leaves by expressions, then normalize.

    Keys match Sym, Param, and Radical nodes by name; the key ``"x"``
    replaces the independent variable.
    """
    return normalize(_subst(e, mapping))


def _subst(e: Expr, mapping: Mapping[str, Expr]) -> Expr:
    if isinstance(e, Var):
        return mapping.get("x", e)
    if isinstance(e, (Sym, Param, Radical)):
        return mapping.get(e.name, e)
    if isinstance(e, Const):
        return e
    if isinstance(e, Add):
        return Add(tuple(_subst(t, mapping) for t in e.terms))
    if isinstance(e, Mul):
        return Mul(tuple(_subst(f, mapping) for f in e.factors))
    if isinstance(e, Pow):
        return Pow(_subst(e.base, mapping), e.exponent)
    if isinstance(e, Div):
        return Div(_subst(e.num, mapping), _subst(e.den, mapping))
    if isinstance(e, Apply):
        return Apply(e.func, _subst(e.arg, mapping))
    raise TypeError(f"unknown node {e!r}")


# ---------------------------------------------------------------------------
# Introspection helpers
# ---------------------------------------------------------------------------


def free_names(e: Expr) -> set[str]:
    """Names of all Sym/Param/Radical leaves occurring in ``e``."""
    return _names(e, (Sym, Param, Radical))


def symbol_names(e: Expr) -> set[str]:
    """Names of the Sym leaves occurring in ``e``: the only leaves whose
    derivatives come from a derivation table."""
    return _names(e, (Sym,))


def _names(e: Expr, kinds: tuple[type, ...]) -> set[str]:
    """Names of the leaves of the given kinds, including those inside a
    radical's square; one loop over a stack of key entries, so a tree of
    any depth is walked."""
    out: set[str] = set()
    stack = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, kinds):
            out.add(node.name)
        stack += (c for c in node._key() if isinstance(c, Expr))
    return out


def depends_on_x(e: Expr) -> bool:
    """Whether a generator of the normal form of ``e`` may depend on x: x
    itself, a symbol or a radical (x-dependent unless proven otherwise;
    callers that need a sharper test substitute them away first), or an
    application whose argument does.  Parameters do not."""
    rf = _to_ratfunc(e)
    return any(
        gen[0] in (0, 2, 3) or gen[0] == 4 and depends_on_x(gen[3].arg)
        for poly in (rf.num, rf.den) for mono in poly for gen, _ in mono[1]
    )


# ---------------------------------------------------------------------------
# Canonical text serialization (S-expressions)
# ---------------------------------------------------------------------------
#
# Grammar (tokens separated by whitespace or parentheses):
#   expr  := const | x | (param NAME) | (sym NAME) | (rad NAME expr)
#          | (+ expr ...) | (* expr ...) | (^ expr INT) | (/ expr expr)
#          | (apply exp expr)
#   const := RAT | (c RAT RAT)          -- (c re im) for nonreal constants
#   RAT   := optionally signed integer or integer/integer


def _rat_text(n: int, d: int) -> str:
    """The reduced text of the rational ``n/d`` for ``d > 0``."""
    g = gcd(n, d)
    return str(n // g) if d == g else f"{n // g}/{d // g}"


def to_sexpr(e: Expr) -> str:
    """Canonical S-expression text for ``e`` (not normalized first).

    _TEXT_CACHE keeps the text of each printed root and of each term of a
    printed normal form (the shared term nodes).  Interior nodes of other
    trees are not kept, so a long sum printed once adds one entry.
    """
    text = _TEXT_CACHE.get(e)
    if text is None:
        _bound_caches()
        cached = _NORMAL_CACHE.get(e)
        text = _TEXT_CACHE[e] = (_normal_sexpr(e) if cached is not None and cached[0] is e
                                 else _sexpr(e))
    return text


def _normal_sexpr(n: Expr) -> str:
    """The text of the normal form ``n``, from the kept text of each of the
    terms of its numerator and denominator."""
    parts = (n.num, n.den) if type(n) is Div else (n,)
    texts = []
    for part in parts:
        is_sum = type(part) is Add
        words = []
        for term in part.terms if is_sum else (part,):
            word = _TEXT_CACHE.get(term)
            if word is None:
                word = _TEXT_CACHE[term] = _sexpr(term)
            words.append(word)
        texts.append(f"(+ {' '.join(words)})" if is_sum else words[0])
    return f"(/ {texts[0]} {texts[1]})" if len(texts) == 2 else texts[0]


def _sexpr(e: Expr) -> str:
    """The text of ``e``, from one loop over a stack of nodes and text, so
    a tree of any depth prints."""
    out: list[str] = []
    stack: list = [e]
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is str:
            out.append(node)
        elif kind is Const:
            v = node.value
            if v._b:
                out.append(f"(c {_rat_text(v._a, v._d)} {_rat_text(v._b, v._d)})")
            else:
                # gcd(a, d) == 1 when b == 0, so a/d is the reduced real part
                out.append(str(v._a) if v._d == 1 else f"{v._a}/{v._d}")
        elif kind is Mul or kind is Add:
            ops = node.factors if kind is Mul else node.terms
            out.append("(* " if kind is Mul else "(+ ")
            stack.append(")")
            for op in reversed(ops[1:]):
                stack += (op, " ")
            stack += ops[:1]
        elif kind is Param:
            out.append(f"(param {node.name})")
        elif kind is Pow:
            out.append("(^ ")
            stack += (f" {node.exponent})", node.base)
        elif kind is Var:
            out.append("x")
        elif kind is Sym:
            out.append(f"(sym {node.name})")
        elif kind is Div:
            out.append("(/ ")
            stack += (")", node.den, " ", node.num)
        elif kind is Radical:
            out.append(f"(rad {node.name} ")
            stack += (")", node.square)
        elif kind is Apply:
            out.append(f"(apply {node.func} ")
            stack += (")", node.arg)
        else:
            raise TypeError(f"unknown node {kind.__name__}")
    return "".join(out)


# head -> (the kinds of its arguments, its constructor); + and * take
# any number of expressions
_SEXPR_HEADS = {
    "+": (None, Add), "*": (None, Mul),
    "^": (("expr", "INT"), Pow), "/": (("expr", "expr"), Div),
    "param": (("NAME",), Param), "sym": (("NAME",), Sym),
    "rad": (("NAME", "expr"), Radical), "apply": (("NAME", "expr"), Apply),
    "c": (("RAT", "RAT"), lambda re, im: Const(GaussRat(re, im))),
}
# argument kind -> the reader of a token in its place
_SEXPR_TOKEN = {"expr": lambda tok: X if tok == "x" else Const(GaussRat(Fraction(tok))),
                "NAME": str, "INT": int, "RAT": Fraction}


def parse_sexpr(text: str) -> Expr:
    """Parse the canonical S-expression serialization back to an Expr.

    One pass over the tokens with a stack of open lists.  Each head fixes
    the number and kind of its arguments, and text that breaks the
    grammar raises :class:`KitError`; a bad number raises ValueError.
    """
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    if not tokens:
        raise KitError("empty expression text")
    # open lists, innermost last, as (head, kinds, constructor, arguments
    # as tokens or nodes); None for a list whose head comes next
    stack: list = []
    atom = _SEXPR_TOKEN["expr"]
    for k, tok in enumerate(tokens):
        if stack and stack[-1] is None:
            if tok not in _SEXPR_HEADS:
                raise KitError(f"unknown S-expression head {tok!r}")
            stack[-1] = (tok, *_SEXPR_HEADS[tok], [])
            continue
        if tok == "(":
            stack.append(None)
            continue
        node = tok
        if tok == ")":
            if not stack:
                raise KitError("unbalanced parenthesis in expression text")
            head, kinds, build, args = stack.pop()
            # each token is read as its kind; a list goes only where an
            # expression does
            if kinds is None:
                node = build([atom(a) if type(a) is str else a for a in args])
            elif len(args) == len(kinds) and all(
                    type(a) is str or kind == "expr" for kind, a in zip(kinds, args)):
                node = build(*[_SEXPR_TOKEN[kind](a) if type(a) is str else a
                               for kind, a in zip(kinds, args)])
            else:
                raise KitError(f"malformed ({head} ...) in expression text: "
                               f"expected ({head} {' '.join(kinds)})")
        if stack:
            stack[-1][3].append(node)
        elif k + 1 < len(tokens):
            raise KitError(f"trailing tokens in expression text: {tokens[k + 1:]!r}")
        else:
            return atom(node) if type(node) is str else node
    raise KitError("unbalanced parenthesis in expression text")


# ---------------------------------------------------------------------------
# Infix parsing (for CLI flags) and pretty printing
# ---------------------------------------------------------------------------


def parse_infix(text: str, params: Iterable[str] = ()) -> Expr:
    """Parse ``"2 - i*w1"`` style input.

    Operators + - * / ^ with usual precedence, parentheses, integer and
    a/b rational literals, ``i`` for the imaginary unit, ``x`` for the
    variable.  Other names become Param if listed in ``params``, else
    Sym.  ``exp(...)`` is the one function.
    """
    parser = _InfixParser(_tokenize_infix(text), set(params))
    expr = parser.parse_expression()
    if parser.peek() is not None:
        raise KitError(f"unexpected token {parser.peek()!r} in {text!r}")
    return expr


# a digit run, a name, or an operator; any other non-space character is bad
_INFIX_TOKEN = re.compile(r"\s*(?:(\d+|[^\W\d]\w*|[-+*/^()])|(\S))")


def _tokenize_infix(text: str) -> list[str]:
    out: list[str] = []
    for tok, bad in _INFIX_TOKEN.findall(text):
        if bad:
            raise KitError(f"bad character {bad!r} in expression text")
        out.append(tok)
    return out


# leading minus signs and open parentheses around one operand; each
# parenthesis costs the reader five frames, so 100 stay well inside the
# default recursion limit, and the trees they build stay shallow enough
# for the recursive walks
_INFIX_MAX_DEPTH = 100


class _InfixParser:
    def __init__(self, tokens: list[str], params: set[str]):
        self.tokens = tokens
        self.pos = 0
        self.params = params
        self.depth = 0

    def nest(self, levels: int) -> None:
        self.depth += levels
        if self.depth > _INFIX_MAX_DEPTH:
            raise KitError("nested too deeply")

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def parse_expression(self) -> Expr:
        expr = self.parse_term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.parse_term()
            expr = expr + rhs if op == "+" else expr - rhs
        return expr

    def parse_term(self) -> Expr:
        expr = self.parse_unary()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.parse_unary()
            expr = expr * rhs if op == "*" else expr / rhs
        return expr

    def parse_unary(self) -> Expr:
        negations = 0
        while self.peek() in ("-", "+"):
            negations += self.take() == "-"
        self.nest(negations)
        expr = self.parse_power()
        self.depth -= negations
        for _ in range(negations):
            expr = -expr
        return expr

    def parse_power(self) -> Expr:
        base = self.parse_atom()
        if self.peek() == "^":
            self.take()
            sign = 1
            if self.peek() == "-":
                self.take()
                sign = -1
            tok = self.take()
            if tok is None or not tok.isdigit():
                raise KitError("exponent must be an integer")
            return Pow(base, sign * int(tok))
        return base

    def parse_atom(self) -> Expr:
        tok = self.take()
        if tok is None:
            raise KitError("unexpected end of expression")
        if tok in "+-*/^)":
            raise KitError(f"unexpected {tok!r} where an operand belongs")
        if tok == "(":
            return self.parse_parenthesized()
        if tok.isdigit():
            return Const(int(tok))
        if tok == "i":
            return I
        if tok == "x":
            return X
        if tok == "exp" and self.peek() == "(":
            self.take()
            return Apply("exp", self.parse_parenthesized())
        if tok in self.params:
            return Param(tok)
        return Sym(tok)

    def parse_parenthesized(self) -> Expr:
        """The expression after an opening parenthesis, through its close."""
        self.nest(1)
        expr = self.parse_expression()
        if self.take() != ")":
            raise KitError("missing closing parenthesis")
        self.depth -= 1
        return expr


def to_pretty(e: Expr) -> str:
    """Human-oriented infix rendering (lossy; use to_sexpr to round-trip).

    One loop over a stack of (node, precedence, number of children) entries,
    so a tree of any depth prints: a node's entry goes back on the stack
    above its children's, and once their texts are done it joins them.
    """
    done: list[str] = []
    stack: list = [(e, 0, None)]
    while stack:
        node, prec, arity = stack.pop()
        kind = type(node)
        if arity is not None:
            texts = done[len(done) - arity:]
            del done[len(done) - arity:]
            done.append(_pretty_join(node, prec, texts))
        elif kind is Const:
            done.append(_pretty_const(node.value, prec))
        elif kind is Var:
            done.append("x")
        elif kind is Param or kind is Sym or kind is Radical:
            done.append(node.name)
        else:
            if kind is Add:
                children = [(t, 1) for t in _sum_run(node)]
            elif kind is Mul:
                children = [(f, 2) for f in node.factors]
            elif kind is Pow:
                children = [(node.base, 3)]
            elif kind is Div:
                children = [(node.num, 2), (node.den, 3)]
            elif kind is Apply:
                children = [(node.arg, 0)]
            else:
                raise TypeError(f"unknown node {kind.__name__}")
            stack.append((node, prec, len(children)))
            stack += [(child, p, None) for child, p in reversed(children)]
    return done[0]


def _sum_run(e: Add) -> list[Expr]:
    """The terms of ``e`` with each nonempty first term that is itself a
    sum replaced by its terms, down the left spine.  A sum inside a sum is
    never parenthesized and the outer join's replace covers the inner one's,
    so ``to_pretty`` joins the whole run at once: in linear time, where
    joining level by level copies every lower level's text again."""
    rests = []
    while e.terms and type(e.terms[0]) is Add and e.terms[0].terms:
        rests.append(e.terms[1:])
        e = e.terms[0]
    out = list(e.terms)
    for rest in reversed(rests):
        out.extend(rest)
    return out


def _pretty_join(node: Expr, prec: int, texts: list[str]) -> str:
    """The text of ``node`` at precedence ``prec`` from its children's."""
    kind = type(node)
    if kind is Add:
        s = " + ".join(texts).replace("+ -", "- ")
        return f"({s})" if prec > 1 else s
    if kind is Mul:
        s = "*".join(texts)
        return f"({s})" if prec > 2 else s
    if kind is Pow:
        return f"{texts[0]}^{node.exponent}"
    if kind is Div:
        return f"{texts[0]}/{texts[1]}"
    return f"{node.func}({texts[0]})"


def _pretty_const(v: GaussRat, prec: int) -> str:
    a, b, d = v._a, v._b, v._d
    if b == 0:
        s = _rat_text(a, d)
        return f"({s})" if (a < 0 and prec > 0) else s
    if a == 0:
        if b == d:
            return "i"
        s = _rat_text(b, d)
        return f"{s}*i" if prec <= 1 else f"({s}*i)"
    return f"({_rat_text(a, d)}{'+' if b > 0 else '-'}{_rat_text(abs(b), d)}*i)"
