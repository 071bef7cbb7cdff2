"""Finite commutative rings realized from symbolic specs.

Every ring exposes a canonical element tuple (`elements`), unchecked fast
arithmetic (`add`/`mul`/`neg`/`power`), divisibility (`divides`: b in
aR), and cached structural sets: the nilradical with the nilpotency
index of each member, the unit group, the zero-divisors, and the
characteristic.  `representatives` is the class table that
first-witness sweeps run over: one entry per principal ideal, its least
generator.  `element_at` reads one literal and `index_of` finds it.  All
three are closed form for cyclic, product and trivial-extension rings, so
a one-shot query on a large ring of those kinds never builds `elements`;
a quotient lists only its own cosets, never its base.  The one map of
principal ideals, `_class_positions`, takes the key of xR to the
position of its entry, so `class_entry` reads x's associate class off
the key of xR.  Rings are immutable once built;
`build_ring` memoizes on the spec alone, whatever the order cap, so
repeated builds of the same spec share one object, its caches and the
tables `per_ring` keeps on it; the cap is checked on every call, against
the spec's `order_bound` first, and part by part only when that exceeds it.

Divisibility and literal indexing are per kind (gcd tests for cyclic
rings, componentwise rules for products, and so on), and so are class
tables: the divisors of n on Z_n, pairs of factor entries on products, an
orbit rule on trivial extensions, the first image of each principal ideal
on quotients.  The test suite checks each against the exhaustive
definition on small rings.
Units, nilpotents, zero-divisors and the characteristic come from the
definitions, once, in `FiniteRing`: the divisors of 1, the elements with
a zero power, the nonzero non-units, the additive order of 1.

Every ideal has a closed-form key, and this module alone reads its
format: the key functions (membership, size, meets, sums, generation,
members) sit beside the kinds whose parameters they read, and `ideals`
builds on them.  A quotient R/J is built from the key of J: the least
member of a coset and the least members of all cosets are read off that
key (`_least`, `_minima`), so R/J costs what R/J holds, whatever the
size of R.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache, reduce, wraps
from itertools import product as iter_product

from .specs import (
    CyclicZ,
    Idealization,
    Product,
    Quotient,
    RingSpec,
    SpecError,
    format_ring_spec,
)

DEFAULT_ORDER_CAP = 2 ** 20

#: canonical element encodings: residues for cyclic rings, pairs for
#: products and trivial extensions, minimal coset representatives for
#: quotients.  Equality is encoding equality.
Element = object


def _serialize(element):
    """JSON form of an element encoding: tuples become nested lists."""
    if isinstance(element, tuple):
        return [_serialize(part) for part in element]
    return element


class OrderCapError(ValueError):
    """Requested ring exceeds the configured order cap; `spec` is the ring
    over the cap, which may be a part of the ring asked for."""

    def __init__(self, message: str, spec: RingSpec | None = None):
        super().__init__(message)
        self.spec = spec


class ForeignElementError(ValueError):
    """An element was used with a ring it does not belong to."""


class FiniteRing:
    """Base class; subclasses fix the arithmetic for one spec kind.

    `power_bound` is L = `order.bit_length()`, the one bound on powers
    that every table relies on: x**t R is the same ideal for all t >= L.
    Proof: a finite commutative ring is a product of local rings R_i, and
    R_i has length l_i <= log2|R_i| (every composition factor is a field
    with at least two elements), so its maximal ideal M_i has M_i**l_i =
    0.  For t >= l_i the component of x**t in R_i is therefore 0 (x_i in
    M_i) or a unit, so x**t R is the same ideal for every t >= max l_i,
    and max l_i <= log2|R| < L.  Hence x**t lies in an ideal I (or is 0)
    for some t only if it does for some t <= L, and the least such t is
    at most L.
    """

    def __init__(self, spec: RingSpec, order: int, zero, one):
        self.spec = spec
        self.order = order
        self.power_bound = order.bit_length()
        self.zero = zero
        self.one = one
        self._hash = hash(spec)  # once: every ideal hashes its ring
        self.tables: dict = {}  # what is derived from this ring; see `per_ring`

    # -- identity ----------------------------------------------------------

    @cached_property
    def spec_str(self) -> str:
        return format_ring_spec(self.spec)

    def __repr__(self):
        return self.spec_str

    def __eq__(self, other):
        # built rings are cached per spec, so most comparisons are identical
        return self is other or (isinstance(other, FiniteRing) and self.spec == other.spec)

    def __hash__(self):
        return self._hash

    def __getstate__(self):  # a copy rebuilds its tables on demand
        return {**self.__dict__, "tables": {}}

    # -- arithmetic (unchecked; see element_arithmetic for the checked API) -

    def add(self, x, y):
        raise NotImplementedError

    def mul(self, x, y):
        raise NotImplementedError

    def neg(self, x):
        raise NotImplementedError

    def power(self, x, t: int):
        """x**t; x**0 is the identity."""
        raise NotImplementedError

    def contains(self, x) -> bool:
        raise NotImplementedError

    def require_member(self, x):
        if not self.contains(x):
            raise ForeignElementError(f"{x!r} is not an element of {self.spec_str}")

    @cached_property
    def elements(self) -> tuple:
        """All elements in canonical (sorted) order; zero comes first."""
        raise NotImplementedError

    def element_at(self, i: int):
        """``elements[i]``, for 0 <= i < order (unchecked)."""
        return self.elements[i]

    def position(self, x) -> int:
        """`index_of` unchecked: x must be an element."""
        raise NotImplementedError

    def index_of(self, x) -> int:
        """Position of x in the canonical element order."""
        self.require_member(x)
        return self.position(x)

    def divides(self, a, b) -> bool:
        """Whether b lies in the principal ideal aR: a*r == b for some r."""
        raise NotImplementedError

    @cached_property
    def representatives(self) -> tuple:
        """The class table: the least member of every associate class, in
        canonical order, so one entry per principal ideal.  In a finite ring
        xR == yR iff y = ux for a unit u; then x**t lies in an ideal I (or
        is 0) iff y**t does, and xz lies in I iff yz does.  Swapping each
        factor of a failing tuple for the least member of its class keeps it
        failing and its sorted index tuple pointwise no larger, so the first
        witness in canonical order is made of table entries.  Every sweep
        and every byte of `closure._thresholds` runs over this table, and
        ideal enumeration takes its entries as the principal generators."""
        raise NotImplementedError

    @cached_property
    def _table(self) -> frozenset:
        return frozenset(self.representatives)

    @cached_property
    def _class_positions(self) -> dict:
        """{key of xR: position of x in the class table}, in table order:
        the table holds one entry per principal ideal, so this is every
        principal ideal of the ring, each with its least generator."""
        return {_generated_key(self, (x,)): i for i, x in enumerate(self.representatives)}

    def class_entry(self, x):
        """The class-table entry that generates xR, the least associate of
        x: x itself when x is an entry, else read off `_class_positions`."""
        if x in self._table:
            return x
        self.require_member(x)
        return self.representatives[self._class_positions[_generated_key(self, (x,))]]

    # -- structure ----------------------------------------------------------

    def nilpotency_index(self, x):
        """Smallest k >= 1 with x**k == 0, or None for non-nilpotents.

        Powers are iterated until zero, never past k = `power_bound`.
        """
        y = x
        k = 1
        while y != self.zero:
            if k >= self.power_bound:
                return None
            y = self.mul(y, x)
            k += 1
        return k

    @cached_property
    def nilpotency_indices(self) -> dict:
        """{a: nilpotency index of a} over the nilradical, in canonical order."""
        indices = {}
        for x in self.elements:
            k = self.nilpotency_index(x)
            if k is not None:
                indices[x] = k
        return indices

    @cached_property
    def nilpotents(self) -> frozenset:
        return frozenset(self.nilpotency_indices)

    @cached_property
    def units(self) -> frozenset:
        """The divisors of 1."""
        return frozenset(x for x in self.elements if self.divides(x, self.one))

    @cached_property
    def zero_divisors(self) -> frozenset:
        # the nonzero non-units; the trichotomy with the pairwise
        # definition is asserted exhaustively in the tests
        units = self.units
        return frozenset(x for x in self.elements if x != self.zero and x not in units)

    @cached_property
    def characteristic(self) -> int:
        acc = self.one
        k = 1
        while acc != self.zero:
            acc = self.add(acc, self.one)
            k += 1
        return k


def per_ring(build):
    """``build(ring, *args)`` once per ring and arguments, kept in `FiniteRing.tables`."""

    @wraps(build)
    def kept(ring, *args):
        key = (build, *args) if args else build
        try:
            return ring.tables[key]
        except KeyError:
            value = ring.tables[key] = build(ring, *args)
            return value

    return kept


@lru_cache(maxsize=None)
def _factorize(n: int) -> tuple:
    """Prime factorization as ((p, e), ...), ascending primes."""
    factors = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors.append((p, e))
        p += 1 if p == 2 else 2
    if m > 1:
        factors.append((m, 1))
    return tuple(factors)


def _divisors(n: int) -> tuple:
    """Positive divisors of n, ascending."""
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return tuple(sorted(set(small) | {n // d for d in small}))


def _is_prime_number(n: int) -> bool:
    factors = _factorize(n)
    return len(factors) == 1 and factors[0][1] == 1


class CyclicRing(FiniteRing):
    def __init__(self, spec: CyclicZ):
        n = spec.modulus
        super().__init__(spec, n, 0, 1)
        self.n = n

    def add(self, x, y):
        return (x + y) % self.n

    def mul(self, x, y):
        return (x * y) % self.n

    def neg(self, x):
        return (-x) % self.n

    def power(self, x, t):
        return pow(x, t, self.n)

    def contains(self, x):
        return isinstance(x, int) and 0 <= x < self.n

    def divides(self, a, b):
        # aZ_n = gcd(a, n)Z_n, the rule `_generated_key` uses too
        return b % math.gcd(a, self.n) == 0

    @cached_property
    def elements(self):
        return tuple(range(self.n))

    def element_at(self, i):
        return i

    def position(self, x):
        return x

    @cached_property
    def representatives(self):
        # x and gcd(x, n) are associates, and gcd(x, n) <= x
        return (0,) + _divisors(self.n)[:-1]


class ProductRing(FiniteRing):
    def __init__(self, spec: Product, left: FiniteRing, right: FiniteRing):
        super().__init__(
            spec, left.order * right.order, (left.zero, right.zero), (left.one, right.one)
        )
        self.left = left
        self.right = right

    def add(self, x, y):
        return (self.left.add(x[0], y[0]), self.right.add(x[1], y[1]))

    def mul(self, x, y):
        return (self.left.mul(x[0], y[0]), self.right.mul(x[1], y[1]))

    def neg(self, x):
        return (self.left.neg(x[0]), self.right.neg(x[1]))

    def power(self, x, t):
        return (self.left.power(x[0], t), self.right.power(x[1], t))

    def contains(self, x):
        return (
            isinstance(x, tuple)
            and len(x) == 2
            and self.left.contains(x[0])
            and self.right.contains(x[1])
        )

    def divides(self, a, b):
        return self.left.divides(a[0], b[0]) and self.right.divides(a[1], b[1])

    @cached_property
    def elements(self):
        return tuple(iter_product(self.left.elements, self.right.elements))

    def element_at(self, i):
        q, r = divmod(i, self.right.order)
        return (self.left.element_at(q), self.right.element_at(r))

    def position(self, x):
        return self.left.position(x[0]) * self.right.order + self.right.position(x[1])

    @cached_property
    def representatives(self):
        # classes are C1 x C2, least member (min C1, min C2) in product order
        return tuple(iter_product(self.left.representatives, self.right.representatives))


class IdealizationRing(FiniteRing):
    """Trivial extension Z_n (+) Z_d: (r, m)(s, u) = (rs, ru + sm)."""

    def __init__(self, spec: Idealization):
        n, d = spec.base_modulus, spec.module_modulus
        super().__init__(spec, n * d, (0, 0), (1, 0))
        self.n = n
        self.d = d

    def add(self, x, y):
        return ((x[0] + y[0]) % self.n, (x[1] + y[1]) % self.d)

    def mul(self, x, y):
        return ((x[0] * y[0]) % self.n, (x[0] * y[1] + y[0] * x[1]) % self.d)

    def neg(self, x):
        return ((-x[0]) % self.n, (-x[1]) % self.d)

    def power(self, x, t):
        # (r, m)**t = (r**t, t * r**(t-1) * m), by induction on t
        if t == 0:
            return self.one
        r, m = x
        return (pow(r, t, self.n), (t * pow(r, t - 1, self.d) * m) % self.d)

    def contains(self, x):
        return (
            isinstance(x, tuple)
            and len(x) == 2
            and isinstance(x[0], int)
            and isinstance(x[1], int)
            and 0 <= x[0] < self.n
            and 0 <= x[1] < self.d
        )

    def divides(self, a, b):
        # (a0, a1)(r0, r1) = (b0, b1) needs a0 r0 = b0 mod n, one of the
        # g = gcd(a0, n) residues r0 = first + j * step (0 <= j < g), and
        # then a0 r1 = b1 - r0 a1 mod d, solvable iff h = gcd(a0, d)
        # divides b1 - r0 a1.  Since d | n, h divides g, so j runs over
        # every residue mod h, and j * (step a1) mod h runs over the
        # multiples of gcd(step a1, h): some r0 works iff that gcd
        # divides b1 - first a1
        (a0, a1), (b0, b1) = a, b
        g = math.gcd(a0, self.n)
        if b0 % g:
            return False
        step = self.n // g
        first = (b0 // g) * pow(a0 // g, -1, step) % step
        h = math.gcd(a0, self.d)
        return (b1 - first * a1) % math.gcd(step * a1, h) == 0

    @cached_property
    def elements(self):
        return tuple((r, m) for r in range(self.n) for m in range(self.d))

    def element_at(self, i):
        return divmod(i, self.d)

    def position(self, x):
        return x[0] * self.d + x[1]

    @cached_property
    def representatives(self):
        # the unit (u, v) takes (g, m) to (ug, um + vg): g = gcd(r, n) is the
        # least first coordinate of the class of (r, m), and the units fixing
        # g (u = 1 mod n/g; all when g = 0) move m by the multiples of h =
        # gcd(g, d) and multiply m mod h by every a in (Z_h)* with a = 1 mod
        # gcd(n/g, h) (a CRT lift), so the row keeps each m < h least in its orbit
        entries = []
        for g in (0,) + _divisors(self.n)[:-1]:
            h = math.gcd(g, self.d)
            q = math.gcd(self.n // g if g else 1, h)
            scalars = [a for a in range(h) if math.gcd(a, h) == 1 and (a - 1) % q == 0]
            entries += [(g, m) for m in range(h) if all(a * m % h >= m for a in scalars)]
        return tuple(entries)


# --- ideal keys ---------------------------------------------------------------
#
# The key of an ideal, by the kind of its ring: d, with d | n, for dZ_n;
# the pair of factor keys for I1 x I2 on a product (every ideal of a
# product, since (1, 0) and (0, 1) are idempotents); (a, e, c) for
# {(ra, rc + se)} on Z_n (+) Z_d, the Hermite normal form of the ideal as
# a subgroup of Z_n x Z_d; and on R/J the key of the preimage in R (the
# ideals of R/J are the ideals of R that contain J).


def _members(ring: FiniteRing, key):
    """The members of the ideal `key`, in canonical (sorted) order: the
    least members of the cosets of the zero ideal (on R/J, of J) in it."""
    return _minima(ring, _generated_key(ring, ()), key)


def _contains(ring: FiniteRing, key, x) -> bool:
    if isinstance(ring, CyclicRing):
        return x in range(0, ring.n, key)
    if isinstance(ring, ProductRing):
        pair = isinstance(x, tuple) and len(x) == 2
        return pair and all(map(_contains, (ring.left, ring.right), key, x))
    if isinstance(ring, IdealizationRing):
        a, e, c = key
        return ring.contains(x) and x[0] % a == 0 and (x[1] - x[0] // a * c) % e == 0
    return ring.contains(x) and _contains(ring.base, key, x)


def _size(ring: FiniteRing, key) -> int:
    if isinstance(ring, CyclicRing):
        return ring.n // key
    if isinstance(ring, ProductRing):
        return math.prod(map(_size, (ring.left, ring.right), key))
    if isinstance(ring, IdealizationRing):
        return ring.n // key[0] * (ring.d // key[1])
    # |I / J| = |I| / |J|
    return _size(ring.base, key) * ring.order // ring.base.order


def _meet(ring: FiniteRing, key, other):
    if isinstance(ring, CyclicRing):
        # dZ_n & d'Z_n = lcm(d, d')Z_n
        return math.lcm(key, other)
    if isinstance(ring, ProductRing):
        return tuple(map(_meet, (ring.left, ring.right), key, other))
    if isinstance(ring, IdealizationRing):
        # x = kL, L = lcm(a, a'), has a y in both iff (kL/a)c = (kL/a')c' mod
        # g = gcd(e, e'), iff g / gcd(g, D) | k for D = (L/a)c - (L/a')c';
        # then y = (a''/a)c mod e and (a''/a')c' mod e': one y mod lcm(e, e')
        (a, e, c), (a2, e2, c2) = key, other
        lcm, g = math.lcm(a, a2), math.gcd(e, e2)
        a3 = lcm * g // math.gcd(g, lcm // a * c - lcm // a2 * c2)
        r, e3 = a3 // a * c, e * e2 // g
        t = (a3 // a2 * c2 - r) // g * pow(e // g, -1, e2 // g)
        return a3, e3, (r + e * t) % e3
    return _meet(ring.base, key, other)


def _sum(ring: FiniteRing, key, other):
    if isinstance(ring, CyclicRing):
        return math.gcd(key, other)
    if isinstance(ring, ProductRing):
        return tuple(map(_sum, (ring.left, ring.right), key, other))
    if isinstance(ring, IdealizationRing):
        return _hermite(key, ((other[0], other[2]), (0, other[1])))
    return _sum(ring.base, key, other)


def _hermite(key, vectors):
    """The Hermite normal form (a, e, c) of the ideal `key` of Z_n (+) Z_d
    and `vectors` as a subgroup of Z_n x Z_d: (x, y) takes a to g = gcd(a,
    x) = ua + vx, with the row u(a, c) + v(x, y), and adds (x/g)(a, c) -
    (a/g)(x, y), whose first coordinate is 0, to eZ_d."""
    a, e, c = key
    for x, y in vectors:
        g = math.gcd(a, x)
        v = pow(x // g, -1, a // g)
        e = math.gcd(e, x // g * c - a // g * y)
        a, c = g, ((g - v * x) // a * c + v * y) % e
    return a, e, c


def _generated_key(ring: FiniteRing, gens):
    """The key of the ideal generated by `gens`: (g1, ..., gk) is
    gcd(n, g1, ..., gk)Z_n, on a product the ideal of the (a_i, b_i) is
    (a_i) x (b_i), since (1, 0) and (0, 1) are idempotents, and on R/J
    the preimage of (g1, ..., gk) is (g1, ..., gk) + J."""
    if isinstance(ring, CyclicRing):
        return reduce(math.gcd, gens, ring.n)
    if isinstance(ring, ProductRing):
        left, right = zip(*gens) if gens else ((), ())
        return (_generated_key(ring.left, left), _generated_key(ring.right, right))
    if isinstance(ring, IdealizationRing):
        # (x, y)R is spanned by (x, y)(1, 0) and (x, y)(0, 1) = (0, x mod d)
        spanning = [v for x, y in gens for v in ((x, y), (0, x % ring.d))]
        return _hermite((ring.n, ring.d, 0), spanning)
    return _sum(ring.base, _generated_key(ring.base, gens), ring.key)


def _least(ring: FiniteRing, key, x):
    """The least member of the coset x + I of the ideal `key`, in the
    ring's canonical order."""
    if isinstance(ring, CyclicRing):
        return x % key
    if isinstance(ring, ProductRing):
        return (_least(ring.left, key[0], x[0]), _least(ring.right, key[1], x[1]))
    if isinstance(ring, IdealizationRing):
        # subtract q(a, c) to bring x0 below a; the members of I with first
        # coordinate 0 are the (0, se), since e | (n/a)c
        a, e, c = key
        q, r = divmod(x[0], a)
        return r, (x[1] - q * c) % e
    # the preimage contains R/J's own modulus J, so each of its cosets in R
    # is a union of cosets of J, and its least member is a member of R/J
    return _least(ring.base, key, x)


def _minima(ring: FiniteRing, key, inside):
    """The least members of the cosets of the ideal `key` that lie in the
    ideal `inside`, which contains it, in canonical (sorted) order."""
    if isinstance(ring, CyclicRing):
        return range(0, key, inside)
    if isinstance(ring, ProductRing):
        # pairs in product order are sorted when each factor is
        return iter_product(*map(_minima, (ring.left, ring.right), key, inside))
    if isinstance(ring, IdealizationRing):
        # the least members have x < a and y < e; since `inside` (a', e',
        # c') contains `key`, a' | a and e' | e
        (a, e, _), (a2, e2, c2) = key, inside
        return ((x, y) for x in range(0, a, a2) for y in range(x // a2 * c2 % e2, e, e2))
    return _minima(ring.base, key, inside)


class QuotientRing(FiniteRing):
    """R/J for the ideal J of the base ring R with closed-form `key`.

    A coset is represented by its least member in the base's canonical
    order (`_least`), so canonicalization is idempotent, the element order
    of the quotient is inherited from the base, and nothing in the base is
    listed.
    """

    def __init__(self, spec: Quotient, base: FiniteRing, key):
        # zero is the least member of every ideal
        super().__init__(
            spec, base.order // _size(base, key), base.zero, _least(base, key, base.one)
        )
        self.base = base
        self.key = key

    def project(self, x):
        """Natural projection: base ring element to its coset representative."""
        self.base.require_member(x)
        return _least(self.base, self.key, x)

    def add(self, x, y):
        return _least(self.base, self.key, self.base.add(x, y))

    def mul(self, x, y):
        return _least(self.base, self.key, self.base.mul(x, y))

    def neg(self, x):
        return _least(self.base, self.key, self.base.neg(x))

    def power(self, x, t):
        return _least(self.base, self.key, self.base.power(x, t))

    def contains(self, x):
        return self.base.contains(x) and _least(self.base, self.key, x) == x

    def divides(self, a, b):
        # b lies in aR/J iff it lies in the preimage aR + J
        base = self.base
        return _contains(base, _sum(base, _generated_key(base, (a,)), self.key), b)

    @cached_property
    def elements(self):
        base = self.base
        return tuple(_minima(base, self.key, _generated_key(base, (base.one,))))

    @cached_property
    def _index(self) -> dict:
        return {x: i for i, x in enumerate(self.elements)}

    def position(self, x):
        return self._index[x]

    @cached_property
    def representatives(self):
        # units lift to R/J, so least class members are images of base
        # entries: the first image of each principal ideal, in canonical
        # (sorted) order
        image = {_least(self.base, self.key, x) for x in self.base.representatives}
        first: dict = {}
        for x in sorted(image):
            first.setdefault(_generated_key(self, (x,)), x)
        return tuple(first.values())


@lru_cache(maxsize=None)
def _build_cached(spec: RingSpec) -> FiniteRing:
    # one ring per spec, whatever the cap; `_build_within` has checked the
    # parts already
    if isinstance(spec, CyclicZ):
        return CyclicRing(spec)
    if isinstance(spec, Product):
        return ProductRing(spec, _build_cached(spec.left), _build_cached(spec.right))
    if isinstance(spec, Idealization):
        return IdealizationRing(spec)
    if isinstance(spec, Quotient):
        base = _build_cached(spec.base)
        gen_elements = []
        for literal in spec.generators:
            if literal >= base.order:
                raise SpecError(
                    f"generator literal {literal} is out of range for "
                    f"{base.spec_str} (order {base.order})"
                )
            gen_elements.append(base.element_at(literal))
        key = _generated_key(base, gen_elements)
        if _contains(base, key, base.one):
            raise SpecError(
                f"improper quotient ideal: generators {spec.generators} "
                f"generate the whole of {base.spec_str}"
            )
        return QuotientRing(spec, base, key)
    raise TypeError(f"not a ring spec: {spec!r}")


def _build_within(spec: RingSpec, max_order: int) -> FiniteRing:
    # the cap part by part, for a spec whose `order_bound` exceeds it: the
    # parts first, so that a quotient reads its generator literals off a
    # base (`element_at`, which lists a quotient base's cosets) only after
    # that base passes
    if isinstance(spec, Product):
        _build_within(spec.left, max_order)
        _build_within(spec.right, max_order)
    elif isinstance(spec, Quotient):
        _build_within(spec.base, max_order)
    ring = _build_cached(spec)
    if ring.order > max_order:
        raise OrderCapError(
            f"{ring.spec_str} has order {ring.order}, exceeding the cap {max_order}", spec
        )
    return ring


def build_ring(spec: RingSpec, max_order: int = DEFAULT_ORDER_CAP) -> FiniteRing:
    """Realize a spec.  Elements and structural sets are computed on first
    use and then cached on the ring; the default order cap is 2**20.  An
    order-cap error for a part of `spec` (a factor, a quotient's base)
    names `spec` too."""
    if spec.order_bound <= max_order:
        # no part can exceed the cap, so the spec cache answers alone
        return _build_cached(spec)
    try:
        return _build_within(spec, max_order)
    except OrderCapError as exc:
        if exc.spec == spec:
            raise
        raise OrderCapError(f"{exc} (in {format_ring_spec(spec)})", spec) from None


# --- checked operation surface ----------------------------------------------


def element_arithmetic(ring: FiniteRing, op: str, x, y=None):
    """Checked arithmetic: validates membership, then dispatches.

    `op` is one of "add", "mul", "neg"; "neg" is unary.
    """
    ring.require_member(x)
    if op == "neg":
        if y is not None:
            raise ValueError("neg is unary")
        return ring.neg(x)
    if y is None:
        raise ValueError(f"{op} needs two operands")
    ring.require_member(y)
    if op == "add":
        return ring.add(x, y)
    if op == "mul":
        return ring.mul(x, y)
    raise ValueError(f"unknown operation {op!r}")


def power(ring: FiniteRing, x, t: int):
    """Checked power: x**t with t >= 0."""
    ring.require_member(x)
    if t < 0:
        raise ValueError("exponent must be non-negative")
    return ring.power(x, t)


def nilradical(ring: FiniteRing) -> frozenset:
    return ring.nilpotents


def units(ring: FiniteRing) -> frozenset:
    return ring.units


def zero_divisors(ring: FiniteRing) -> frozenset:
    return ring.zero_divisors


def characteristic(ring: FiniteRing) -> int:
    return ring.characteristic


def nilpotency_index(ring: FiniteRing, x):
    ring.require_member(x)
    return ring.nilpotency_index(x)
