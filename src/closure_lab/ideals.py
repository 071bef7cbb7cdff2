"""Ideals by canonical key: construction, enumeration, quotients.

An ideal is its element set: an `Ideal` compares and hashes by ring and
the key of that set alone, and its generators are presentation only
(records, quotient literals and enumeration joins read them).  Keys are
closed form on cyclic and product rings: d, with d | n, for dZ_n, and
the pair of factor keys for I1 x I2 (every ideal of a product, since
(1, 0) and (0, 1) are idempotents).  A trivial extension keys an ideal
by an int bitmask over element indices (`FiniteRing.index_of`), and a
quotient by its element set.  Size, containment and meets are read off
the keys; `elements` and `members` are built on demand, never kept.
Enumeration is complete by construction for every ring kind: structural
for cyclic and product rings, and for trivial extensions and quotients a
fixpoint that joins principal ideals until nothing new appears (every
ideal is the sum of the principal ideals of its members).

The deciders' per-ideal tables (tau bytes, status grids, nilpotent tau
bytes, n-absorbing answers) live in one store per ideal value,
`Ideal.table`: every equal ideal of a ring shares it, and it is freed
with the last of them, by reference counting alone.  So a table lives
as long as some ideal that can ask for it: a lattice's ideals as long
as their ring (`rings.per_ring`), a quotient's image ideals only while
their checker holds them.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import compress, count
from itertools import product as iter_product

from .rings import (
    CyclicRing,
    FiniteRing,
    IdealizationRing,
    ProductRing,
    QuotientRing,
    ideal_closure,
    per_ring,
)
from .specs import Quotient


class _Tables(dict):
    """The tables of one ideal value, keyed by table name and arguments;
    weakly referenceable, so the registry does not keep it alive."""

    __slots__ = ("__weakref__",)


@per_ring
def _stores(ring: FiniteRing) -> weakref.WeakValueDictionary:
    # ideal key -> the tables of that ideal value, while an equal ideal holds them
    return weakref.WeakValueDictionary()


class Ideal:
    """An ideal of a realized finite ring; equal ideals share ring and key,
    whatever their generators.  Without generators, its members stand in."""

    __slots__ = ("ring", "key", "_generators", "_proper", "_tables")

    def __init__(self, ring: FiniteRing, key, generators=None):
        self.ring = ring
        self.key = key
        self._generators = None if generators is None else tuple(generators)
        self._proper = None
        self._tables = None

    @property
    def generators(self) -> tuple:
        return self.members if self._generators is None else self._generators

    @property
    def is_proper(self) -> bool:
        proper = self._proper
        if proper is None:
            proper = self._proper = self.ring.one not in self
        return proper

    @property
    def tables(self) -> dict:
        """The table store of this ideal's value, shared by every equal
        ideal of its ring and freed with the last of them."""
        tables = self._tables
        if tables is None:
            stores = _stores(self.ring)
            tables = stores.get(self.key)
            if tables is None:
                tables = stores[self.key] = _Tables()
            self._tables = tables
        return tables

    def table(self, key, build, *args):
        """The table `key` of this ideal's value: ``build(self, *args)`` on
        first use, then kept in `tables`.  A build that raises leaves
        nothing behind."""
        tables = self.tables
        try:
            return tables[key]
        except KeyError:
            table = tables[key] = build(self, *args)
            return table

    def membership(self):
        """A container with a C-speed ``in`` for loops that test many
        elements: the range dZ_n on Z_n, else the element set, built for
        the caller alone."""
        if isinstance(self.ring, CyclicRing):
            return range(0, self.ring.n, self.key)
        return self.elements

    @property
    def elements(self) -> frozenset:
        key = self.key
        return key if isinstance(key, frozenset) else frozenset(_members(self.ring, key))

    @property
    def members(self) -> tuple:
        """The members in canonical (sorted) order."""
        return tuple(_members(self.ring, self.key))

    def __iter__(self):
        return iter(_members(self.ring, self.key))

    def __contains__(self, x) -> bool:
        return _contains(self.ring, self.key, x)

    def __len__(self) -> int:
        return _size(self.ring, self.key)

    def _meet_key(self, other: Ideal):
        if self.ring != other.ring:
            raise ValueError("ideals of different rings")
        return _meet(self.ring, self.key, other.key)

    def __and__(self, other: Ideal) -> Ideal:
        """The meet, read off the keys; its generators are its member list."""
        return Ideal(self.ring, self._meet_key(other))

    def __le__(self, other: Ideal) -> bool:
        return self._meet_key(other) == self.key

    def __lt__(self, other: Ideal) -> bool:
        return self.key != other.key and self <= other

    def __eq__(self, other):
        return isinstance(other, Ideal) and self.ring == other.ring and self.key == other.key

    def __hash__(self):
        return hash((self.ring, self.key))

    def __repr__(self):
        return "{" + ", ".join(str(m) for m in self) + "}"


def _members(ring: FiniteRing, key):
    """The members of the ideal `key`, in canonical (sorted) order."""
    if isinstance(ring, CyclicRing):
        return range(0, ring.n, key)
    if isinstance(ring, ProductRing):
        # pairs in product order are sorted when each factor is
        return iter_product(*map(_members, (ring.left, ring.right), key))
    if isinstance(ring, IdealizationRing):
        # the set bits, lowest first: bin() lists the highest first
        return map(ring.element_at, compress(count(), map("1".__eq__, bin(key)[:1:-1])))
    return sorted(key)


def _contains(ring: FiniteRing, key, x) -> bool:
    if isinstance(ring, CyclicRing):
        return x in range(0, ring.n, key)
    if isinstance(ring, ProductRing):
        pair = isinstance(x, tuple) and len(x) == 2
        return pair and all(map(_contains, (ring.left, ring.right), key, x))
    if isinstance(ring, IdealizationRing):
        return ring.contains(x) and key >> ring.position(x) & 1 == 1
    return x in key


def _size(ring: FiniteRing, key) -> int:
    if isinstance(ring, CyclicRing):
        return ring.n // key
    if isinstance(ring, ProductRing):
        return math.prod(map(_size, (ring.left, ring.right), key))
    if isinstance(ring, IdealizationRing):
        return key.bit_count()
    return len(key)


def _meet(ring: FiniteRing, key, other):
    # dZ_n & d'Z_n = lcm(d, d')Z_n; bitmasks and element sets meet by `&`
    if isinstance(ring, CyclicRing):
        return math.lcm(key, other)
    if isinstance(ring, ProductRing):
        return tuple(map(_meet, (ring.left, ring.right), key, other))
    return key & other


def _key_of(ring: FiniteRing, elements: frozenset):
    """The key of an element set known to be an ideal: the gcd of its members
    and n on Z_n, the keys of its projections (a full rectangle) on a product,
    the bitmask of its element indices on a trivial extension."""
    if isinstance(ring, CyclicRing):
        return reduce(math.gcd, elements, ring.n)
    if isinstance(ring, ProductRing):
        left, right = map(frozenset, zip(*elements))
        if len(left) * len(right) != len(elements):
            raise ValueError(f"not a rectangular ideal of {ring.spec_str}: {sorted(elements)}")
        return (_key_of(ring.left, left), _key_of(ring.right, right))
    if isinstance(ring, IdealizationRing):
        # one character per element, the highest index first
        bits = ["0"] * ring.order
        for x in elements:
            bits[-1 - ring.position(x)] = "1"
        return int("".join(bits), 2)
    return elements


def _generated_key(ring: FiniteRing, gens):
    """The key of the ideal generated by `gens`: (g1, ..., gk) is
    gcd(n, g1, ..., gk)Z_n, and on a product the ideal of the (a_i, b_i)
    is (a_i) x (b_i), since (1, 0) and (0, 1) are idempotents."""
    if isinstance(ring, CyclicRing):
        return reduce(math.gcd, gens, ring.n)
    if isinstance(ring, ProductRing):
        left, right = zip(*gens) if gens else ((), ())
        return (_generated_key(ring.left, left), _generated_key(ring.right, right))
    return _key_of(ring, ideal_closure(ring, gens))


def ideal_from_generators(ring: FiniteRing, generators) -> Ideal:
    """Smallest ideal containing the generators (empty generators give
    the zero ideal)."""
    gens = tuple(generators)
    for g in gens:
        ring.require_member(g)
    return Ideal(ring, _generated_key(ring, gens), gens)


def ideal_from_elements(ring: FiniteRing, elements, generators=None) -> Ideal:
    """Wrap an element set already known to be an ideal (for example the
    image of an ideal under a projection); generators default to the
    full member list, which trivially regenerates the set."""
    return Ideal(ring, _key_of(ring, frozenset(elements)), generators)


def intersect_ideals(first: Ideal, second: Ideal) -> Ideal:
    return first & second


def is_proper(ideal: Ideal) -> bool:
    return ideal.is_proper


@dataclass(frozen=True)
class IdealEnumeration:
    """Every ideal of the ring, sorted by size and then by members."""

    ideals: tuple

    @cached_property
    def proper(self) -> tuple:
        # once per enumeration: every theorem sweep reads it
        return tuple(i for i in self.ideals if i.is_proper)


def _sorted_ideals(ideals) -> tuple:
    return tuple(sorted(ideals, key=lambda i: (len(i), i.members)))


@per_ring
def enumerate_ideals(ring: FiniteRing) -> IdealEnumeration:
    """Every ideal of a ring.

    Cyclic rings: the divisor ideals dZ_n.  Products: all I1 x I2
    combinations of factor ideals.  Other kinds: the principal ideals of
    the class table, then every sum J + P of a found ideal J and a
    principal ideal P, until no new ideal appears.  Each ideal keeps the
    generators of the first join that reached it (principal generators
    are least class members, joins are tried in generator order).
    """
    if isinstance(ring, CyclicRing):
        ideals = [ideal_from_generators(ring, (g,)) for g in ring.representatives]
        return IdealEnumeration(_sorted_ideals(ideals))
    if isinstance(ring, ProductRing):
        pairs = iter_product(enumerate_ideals(ring.left).ideals, enumerate_ideals(ring.right).ideals)
        return IdealEnumeration(_sorted_ideals(product_ideal(ring, *pair) for pair in pairs))
    return _enumerate_by_generators(ring)


def product_ideal(ring: ProductRing, left_ideal: Ideal, right_ideal: Ideal) -> Ideal:
    """The ideal I1 x I2 of a product ring."""
    gens = dict.fromkeys(
        [(g, ring.right.zero) for g in left_ideal.generators]
        + [(ring.left.zero, g) for g in right_ideal.generators]
    )
    return Ideal(ring, (left_ideal.key, right_ideal.key), tuple(gens))


def split_product_ideal(ring: ProductRing, ideal: Ideal):
    """Factor an ideal of R1 x R2 into its projections (I1, I2), each with
    its member list for generators."""
    if ideal.ring != ring:
        raise ValueError("ideal does not belong to this ring")
    return Ideal(ring.left, ideal.key[0]), Ideal(ring.right, ideal.key[1])


def _enumerate_by_generators(ring: FiniteRing) -> IdealEnumeration:
    # the class table holds one entry per principal ideal, in generator order
    found = {ideal_closure(ring, (x,)): (x,) for x in ring.representatives}
    # every ideal is the sum of the principal ideals of its members, so
    # joining principal ideals until nothing new appears reaches them all
    principal = list(found.items())
    frontier = principal
    while frontier:
        grown = []
        for members, gens in frontier:
            for extra_members, extra_gens in principal:
                # J + P is J when P <= J, and the principal P (found
                # already) when J <= P
                if extra_members <= members or members <= extra_members:
                    continue
                joined = _ideal_sum(ring, members, extra_members)
                if joined not in found:
                    new_gens = gens + extra_gens
                    found[joined] = new_gens
                    grown.append((joined, new_gens))
        frontier = sorted(grown, key=lambda kv: kv[1])
    # sorted as `_sorted_ideals` sorts, on the element sets in hand
    ordered = sorted(found.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))
    return IdealEnumeration(tuple(Ideal(ring, _key_of(ring, m), gens) for m, gens in ordered))


def _ideal_sum(ring: FiniteRing, first: frozenset, second: frozenset) -> frozenset:
    """I + J as a union of cosets b + I for b in J: both are additive
    groups already, so no closure step is needed."""
    total = set(first)
    for b in second:
        if b not in total:
            total.update(ring.add(b, a) for a in first)
    return frozenset(total)


def quotient_ring(ring: FiniteRing, ideal: Ideal) -> QuotientRing:
    """The ring of cosets R/I, with `project` as the natural map.

    Built from the element set of `ideal`, outside the spec cache: each
    call returns a fresh ring, equal to the one `build_ring` makes from the
    same spec, and freed once nothing holds it.  A quotient is never
    larger than its base, so the base's order cap holds.
    """
    if ideal.ring != ring:
        raise ValueError("ideal does not belong to this ring")
    if not ideal.is_proper:
        raise ValueError(f"cannot quotient {ring.spec_str} by an improper ideal")
    literals = tuple(ring.index_of(g) for g in ideal.generators)
    return QuotientRing(Quotient(ring.spec, literals), ring, ideal.membership())


def image_ideal(quotient: QuotientRing, ideal: Ideal) -> Ideal:
    """Image of an ideal of the base ring under the natural projection."""
    if ideal.ring != quotient.base:
        raise ValueError("ideal does not belong to the base ring")
    # the members are base elements already: read the coset map unchecked
    coset_of = quotient._rep_map
    elements = frozenset(coset_of[x] for x in ideal.membership())
    gens = []
    for g in ideal.generators:
        image = quotient.project(g)
        if image not in gens:
            gens.append(image)
    return Ideal(quotient, elements, tuple(gens))


def _prime_failure_scan(ideal: Ideal):
    """The one pair sweep behind primality and weak primality: the first
    (x, y) with x, y outside I and xy in I, and the first such pair with
    xy != 0, in nested-loop order over the class table (None when there
    is none).  The sweep stops at the latter."""
    ring = ideal.ring
    members = ideal.membership()
    zero = ring.zero
    outside = [x for x in ring.representatives if x not in members]
    first = None
    for x in outside:
        for y in outside:
            xy = ring.mul(x, y)
            if xy in members:
                if first is None:
                    first = (x, y)
                if xy != zero:
                    return first, (x, y)
    return first, None


def is_prime_ideal(ideal: Ideal) -> bool:
    """xy in I forces x in I or y in I, decided exhaustively."""
    if not ideal.is_proper:
        raise ValueError("primality is only defined for proper ideals")
    first, _ = _prime_failure_scan(ideal)
    return first is None


@per_ring
def krull_dim(ring: FiniteRing) -> int:
    """Length of the longest strict chain of prime ideals, minus one."""
    # `proper` is sorted by size, so every prime inside P comes before P
    chains = []  # (prime, longest chain of primes ending at it)
    for p in (i for i in enumerate_ideals(ring).proper if is_prime_ideal(i)):
        below = [length for q, length in chains if q < p]
        chains.append((p, 1 + max(below, default=0)))
    return max((length for _, length in chains), default=0) - 1
