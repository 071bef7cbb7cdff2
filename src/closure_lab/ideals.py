"""Ideals as explicit element sets: construction, enumeration, quotients.

An ideal is its element set: an `Ideal` compares and hashes by ring and
element set alone, and its generators are presentation only (records,
quotient literals and enumeration joins read them).  Enumeration is
complete by construction for every ring kind: structural for cyclic and
product rings, and for trivial extensions and quotients a fixpoint that
joins principal ideals until nothing new appears (every ideal is the sum
of the principal ideals of its members).

The deciders' per-ideal tables (threshold rows, status grids, nilpotent
rows, n-absorbing answers) live in one store per ideal value,
`Ideal.table`: every equal ideal of a ring shares it, and it is freed
with the last of them, by reference counting alone.  So a table lives
as long as some ideal that can ask for it: a lattice's ideals as long
as their ring (`rings.per_ring`), a quotient's image ideals only while
their checker holds them.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property

from .rings import (
    CyclicRing,
    FiniteRing,
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
    # element set -> the tables of that ideal value, while an equal ideal holds them
    return weakref.WeakValueDictionary()


class Ideal:
    """An ideal of a realized finite ring, as an explicit element set; equal
    ideals share ring and element set, whatever their generators."""

    __slots__ = ("ring", "elements", "generators", "members", "_hash", "_tables")

    def __init__(self, ring: FiniteRing, elements: frozenset, generators: tuple):
        self.ring = ring
        self.elements = elements
        self.generators = tuple(generators)
        self.members = tuple(sorted(elements))
        self._hash = hash((ring, elements))
        self._tables = None

    @property
    def tables(self) -> dict:
        """The table store of this ideal's value, shared by every equal
        ideal of its ring and freed with the last of them."""
        tables = self._tables
        if tables is None:
            stores = _stores(self.ring)
            tables = stores.get(self.elements)
            if tables is None:
                tables = stores[self.elements] = _Tables()
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

    def __contains__(self, x) -> bool:
        return x in self.elements

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.members)

    @property
    def is_proper(self) -> bool:
        return self.ring.one not in self.elements

    def __eq__(self, other):
        return (
            isinstance(other, Ideal)
            and self.ring == other.ring
            and self.elements == other.elements
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "{" + ", ".join(str(m) for m in self.members) + "}"


def ideal_from_generators(ring: FiniteRing, generators) -> Ideal:
    """Smallest ideal containing the generators (empty generators give
    the zero ideal)."""
    gens = tuple(generators)
    return Ideal(ring, ideal_closure(ring, gens), gens)


def ideal_from_elements(ring: FiniteRing, elements) -> Ideal:
    """Wrap an element set already known to be an ideal (for example the
    image of an ideal under a projection); generators default to the
    full member list, which trivially regenerates the set."""
    members = frozenset(elements)
    return Ideal(ring, members, tuple(sorted(members)))


def intersect_ideals(first: Ideal, second: Ideal) -> Ideal:
    if first.ring != second.ring:
        raise ValueError("ideals of different rings")
    return ideal_from_elements(first.ring, first.elements & second.elements)


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
    return tuple(sorted(ideals, key=lambda i: (len(i.members), i.members)))


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
        left = enumerate_ideals(ring.left)
        right = enumerate_ideals(ring.right)
        ideals = []
        for i1 in left.ideals:
            for i2 in right.ideals:
                ideals.append(product_ideal(ring, i1, i2))
        return IdealEnumeration(_sorted_ideals(ideals))
    return _enumerate_by_generators(ring)


def product_ideal(ring: ProductRing, left_ideal: Ideal, right_ideal: Ideal) -> Ideal:
    """The ideal I1 x I2 of a product ring."""
    elements = frozenset(
        (a, b) for a in left_ideal.elements for b in right_ideal.elements
    )
    gens = dict.fromkeys(
        [(g, ring.right.zero) for g in left_ideal.generators]
        + [(ring.left.zero, g) for g in right_ideal.generators]
    )
    return Ideal(ring, elements, tuple(gens))


def split_product_ideal(ring: ProductRing, ideal: Ideal):
    """Factor an ideal of R1 x R2 into its projections (I1, I2); raises if
    the element set is not the full rectangle I1 x I2 (it always is for a
    genuine ideal of a product)."""
    left = frozenset(a for a, _ in ideal.elements)
    right = frozenset(b for _, b in ideal.elements)
    if len(left) * len(right) != len(ideal.elements):
        raise ValueError(f"not a rectangular ideal of {ring.spec_str}: {ideal!r}")
    return (
        ideal_from_elements(ring.left, left),
        ideal_from_elements(ring.right, right),
    )


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
    ideals = _sorted_ideals(Ideal(ring, members, gens) for members, gens in found.items())
    return IdealEnumeration(ideals)


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

    Built from the element set `ideal` holds, outside the spec cache: each
    call returns a fresh ring, equal to the one `build_ring` makes from the
    same spec, and freed once nothing holds it.  A quotient is never
    larger than its base, so the base's order cap holds.
    """
    if ideal.ring != ring:
        raise ValueError("ideal does not belong to this ring")
    if not ideal.is_proper:
        raise ValueError(f"cannot quotient {ring.spec_str} by an improper ideal")
    literals = tuple(ring.index_of(g) for g in ideal.generators)
    return QuotientRing(Quotient(ring.spec, literals), ring, ideal.elements)


def image_ideal(quotient: QuotientRing, ideal: Ideal) -> Ideal:
    """Image of an ideal of the base ring under the natural projection."""
    if ideal.ring != quotient.base:
        raise ValueError("ideal does not belong to the base ring")
    # the members are base elements already: read the coset map unchecked
    coset_of = quotient._rep_map
    elements = frozenset(coset_of[x] for x in ideal.elements)
    gens = []
    for g in ideal.generators:
        image = quotient.project(g)
        if image not in gens:
            gens.append(image)
    if not gens and elements != frozenset({quotient.zero}):
        gens = sorted(elements)
    return Ideal(quotient, elements, tuple(gens))


def _prime_failure_scan(ideal: Ideal):
    """The one pair sweep behind primality and weak primality: the first
    (x, y) with x, y outside I and xy in I, and the first such pair with
    xy != 0, in nested-loop order over the class table (None when there
    is none).  The sweep stops at the latter."""
    ring = ideal.ring
    members = ideal.elements
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
        below = [length for q, length in chains if q.elements < p.elements]
        chains.append((p, 1 + max(below, default=0)))
    return max((length for _, length in chains), default=0) - 1
