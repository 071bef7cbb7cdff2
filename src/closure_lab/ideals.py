"""Ideals by canonical key: construction, enumeration, quotients.

An ideal is its element set: an `Ideal` compares and hashes by ring and
the key of that set alone, and its generators are presentation only
(records, quotient literals and enumeration joins read them).  Every key
is closed form (dZ_n is keyed by d, a product ideal by its factors'
keys, an ideal of Z_n (+) Z_d by its Hermite normal form (a, e, c), and
an ideal of R/J by its preimage's key in R), and the key functions of
`rings` read it: membership, size, containment, meets, sums and
generation.  `elements` and `members` are built on demand, never kept;
on R/J they are cosets, never the preimage.  `quotient_ring` builds R/J
from the key of J, and `image_ideal` keys the image of I by I + J.
Enumeration is complete by construction for every
ring kind: structural for products, and for every other kind a fixpoint
that starts from the ring's principal ideals (one per class-table entry)
and joins them, key by key, until nothing new appears (every ideal is
the sum of the principal ideals of its members).

An `Ideal` holds no table.  The deciders' per-ideal tables (tau bytes,
status grids, n-absorbing answers) are built through
`rings.per_ring` and kept on the ring under the ideal's key, so every
equal ideal of a ring reads one table, and it lives as long as the ring.
A ring holds at most one set of tables per ideal, as its lattice does,
and a fresh quotient's image ideals' tables go with the quotient.
"""

from __future__ import annotations

from functools import cached_property
from itertools import product as iter_product

from .records import Record, _set
from .rings import (
    FiniteRing,
    ProductRing,
    QuotientRing,
    _contains,
    _generated_key,
    _meet,
    _members,
    _size,
    _sum,
    per_ring,
)
from .specs import Quotient


class Ideal:
    """An ideal of a realized finite ring; equal ideals share ring and key,
    whatever their generators.  Without generators, its members stand in."""

    __slots__ = ("ring", "key", "_generators", "_proper")

    def __init__(self, ring: FiniteRing, key, generators=None):
        self.ring = ring
        self.key = key
        self._generators = None if generators is None else tuple(generators)
        self._proper = None

    @property
    def generators(self) -> tuple:
        return self.members if self._generators is None else self._generators

    @property
    def is_proper(self) -> bool:
        proper = self._proper
        if proper is None:
            proper = self._proper = self.ring.one not in self
        return proper

    def membership(self):
        """A container with a C-speed ``in``, built for the caller alone:
        the members' range where they form one (dZ_n, and its image in a
        quotient of Z_n), else their set, which on R/J holds cosets, never
        the preimage."""
        members = _members(self.ring, self.key)
        return members if isinstance(members, range) else frozenset(members)

    @property
    def elements(self) -> frozenset:
        return frozenset(_members(self.ring, self.key))

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


def ideal_from_generators(ring: FiniteRing, generators) -> Ideal:
    """Smallest ideal containing the generators (empty generators give
    the zero ideal)."""
    gens = tuple(generators)
    for g in gens:
        ring.require_member(g)
    return Ideal(ring, _generated_key(ring, gens), gens)


def ideal_from_elements(ring: FiniteRing, elements, generators=None) -> Ideal:
    """The ideal with element set `elements`, or a `ValueError` when the
    ideal they generate is larger; generators default to the member list."""
    members = frozenset(elements)
    ideal = Ideal(ring, ideal_from_generators(ring, members).key, generators)
    if len(ideal) != len(members):
        raise ValueError(f"not an ideal of {ring.spec_str}: {sorted(members)}")
    return ideal


def intersect_ideals(first: Ideal, second: Ideal) -> Ideal:
    return first & second


def is_proper(ideal: Ideal) -> bool:
    return ideal.is_proper


class IdealEnumeration(Record):
    """Every ideal of the ring, sorted by size and then by members."""

    _fields = ("ideals",)
    ideals: tuple

    def __init__(self, ideals: tuple):
        _set(self, "ideals", ideals)
        _set(self, "_values", (ideals,))

    @cached_property
    def proper(self) -> tuple:
        # once per enumeration: every theorem sweep reads it
        return tuple(i for i in self.ideals if i.is_proper)


def _sorted_ideals(ideals) -> tuple:
    return tuple(sorted(ideals, key=lambda i: (len(i), i.members)))


@per_ring
def enumerate_ideals(ring: FiniteRing) -> IdealEnumeration:
    """Every ideal of a ring.

    Products: all I1 x I2 combinations of factor ideals, whose generators
    records print.  Every other kind: the principal ideals of the class
    table (`FiniteRing._class_positions`), then every sum J + P of a found
    ideal J and a principal ideal P, until no new ideal appears; on Z_n
    every ideal is principal, so nothing joins.  Each ideal keeps the
    generators of the first join that reached it (principal generators
    are least class members, joins are tried in generator order).
    """
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
    # the principal ideals of the class table, in generator order
    table = ring.representatives
    found = {key: (table[i],) for key, i in ring._class_positions.items()}
    # every ideal is the sum of the principal ideals of its members, so
    # joining principal ideals until nothing new appears reaches them all
    principal = list(found.items())
    frontier = principal
    while frontier:
        grown = []
        for key, gens in frontier:
            for extra_key, extra_gens in principal:
                # J + P is J when P <= J, and the principal P (found
                # already) when J <= P
                if _meet(ring, key, extra_key) in (key, extra_key):
                    continue
                joined = _sum(ring, key, extra_key)
                if joined not in found:
                    found[joined] = gens + extra_gens
                    grown.append((joined, found[joined]))
        frontier = sorted(grown, key=lambda kv: kv[1])
    return IdealEnumeration(_sorted_ideals(Ideal(ring, key, gens) for key, gens in found.items()))


def quotient_ring(ring: FiniteRing, ideal: Ideal) -> QuotientRing:
    """The ring of cosets R/I, with `project` as the natural map.

    Built from the key of `ideal`, outside the spec cache: each
    call returns a fresh ring, equal to the one `build_ring` makes from the
    same spec, and freed once nothing holds it.  A quotient is never
    larger than its base, so the base's order cap holds.
    """
    if ideal.ring != ring:
        raise ValueError("ideal does not belong to this ring")
    if not ideal.is_proper:
        raise ValueError(f"cannot quotient {ring.spec_str} by an improper ideal")
    literals = tuple(ring.index_of(g) for g in ideal.generators)
    return QuotientRing(Quotient(ring.spec, literals), ring, ideal.key)


def image_ideal(quotient: QuotientRing, ideal: Ideal) -> Ideal:
    """Image of an ideal I of the base ring under the natural projection
    onto R/J: keyed by its preimage I + J, which is I when I contains J."""
    if ideal.ring != quotient.base:
        raise ValueError("ideal does not belong to the base ring")
    key = _sum(quotient.base, ideal.key, quotient.key)
    return Ideal(quotient, key, dict.fromkeys(map(quotient.project, ideal.generators)))


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
