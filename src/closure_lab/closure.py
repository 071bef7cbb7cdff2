"""Deciders for power-closure properties of ideals, with witnesses.

A proper ideal I is (m,n)-closed when x**m in I forces x**n in I, and
weakly (m,n)-closed when that is only required for x**m nonzero.  The
gap between the two notions is witnessed by unbreakable-zero elements:
a with a**m == 0 but a**n not in I.

All three closedness deciders (`classify`, `is_mn_closed`,
`is_weakly_mn_closed`) read one sweep, `_failure_scan`, which finds the
first failing x and the first failing x with x**m != 0 in canonical
element order.  Like every first-witness sweep here, it runs over the
class table `FiniteRing.representatives` (one entry per associate
class) and finds the first witness a scan of all elements finds.

`is_n_absorbing` prunes its multiset sweep and remembers each answer in
a bounded memo; its docstring says why the first witness is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .ideals import Ideal, _prime_failure_scan
from .rings import _serialize

STATUS_CLOSED = "closed"
STATUS_WEAKLY_ONLY = "weakly_only"
STATUS_NOT_WEAKLY = "not_weakly"

DEFAULT_ABSORBING_BUDGET = 2 ** 24


class AbsorbingBudgetError(RuntimeError):
    """The (n+1)-fold sweep would exceed the configured budget; callers
    should skip the check rather than report a result."""

    def __init__(self, required: int, budget: int):
        super().__init__(f"sweep of {required} tuples exceeds budget {budget}")
        self.required = required
        self.budget = budget


@dataclass(frozen=True)
class ClosednessReport:
    """Three-way classification of one (ideal, m, n) instance.

    For status "weakly_only" the witness is the first unbreakable-zero
    element; for "not_weakly" it is the first x with 0 != x**m in I and
    x**n not in I; for "closed" there is no witness.
    """

    ideal: Ideal
    m: int
    n: int
    status: str
    witness: object = None

    def to_record(self) -> dict:
        record = {
            "ring_spec": self.ideal.ring.spec_str,
            "ideal_gens": [_serialize(g) for g in self.ideal.generators],
            "m": self.m,
            "n": self.n,
            "status": self.status,
        }
        if self.witness is not None:
            record["witness"] = _serialize(self.witness)
        return record


def _require_proper(ideal: Ideal):
    if not ideal.is_proper:
        raise ValueError("property is only defined for proper ideals")


def _require_positive(*values):
    for v in values:
        if v < 1:
            raise ValueError("exponents must be positive")


def _failure_scan(ideal: Ideal, m: int, n: int):
    """The one sweep behind every (m,n)-closedness decision.

    Returns ``(first, nonzero)``: the first x in canonical order with
    x**m in I and x**n not in I, and the first such x with x**m != 0
    (None when there is none).  The sweep runs over the class table and
    stops at the latter.
    """
    _require_proper(ideal)
    _require_positive(m, n)
    ring = ideal.ring
    members = ideal.elements
    zero = ring.zero
    first = None
    for x in ring.representatives:
        xm = ring.power(x, m)
        if xm in members and ring.power(x, n) not in members:
            if first is None:
                first = x
            if xm != zero:
                return first, x
    return first, None


def is_mn_closed(ideal: Ideal, m: int, n: int):
    """Exhaustive test of x**m in I implies x**n in I; returns
    (ok, first failing x or None)."""
    first, _ = _failure_scan(ideal, m, n)
    return first is None, first


def is_weakly_mn_closed(ideal: Ideal, m: int, n: int):
    """Exhaustive test of 0 != x**m in I implies x**n in I; returns
    (ok, first failing x or None)."""
    _, nonzero = _failure_scan(ideal, m, n)
    return nonzero is None, nonzero


def unbreakable_zero_elements(ideal: Ideal, m: int, n: int) -> tuple:
    """All a with a**m == 0 and a**n not in I, in canonical order."""
    _require_proper(ideal)
    _require_positive(m, n)
    ring = ideal.ring
    members = ideal.elements
    zero = ring.zero
    return tuple(
        a
        for a in ring.elements
        if ring.power(a, m) == zero and ring.power(a, n) not in members
    )


def classify(ideal: Ideal, m: int, n: int) -> ClosednessReport:
    """closed / weakly_only / not_weakly, read off one failure scan."""
    first, nonzero = _failure_scan(ideal, m, n)
    if nonzero is not None:
        return ClosednessReport(ideal, m, n, STATUS_NOT_WEAKLY, nonzero)
    if first is not None:
        return ClosednessReport(ideal, m, n, STATUS_WEAKLY_ONLY, first)
    return ClosednessReport(ideal, m, n, STATUS_CLOSED, None)


def is_weakly_prime(ideal: Ideal):
    """0 != xy in I forces x in I or y in I; returns (ok, (x, y) or None)."""
    _require_proper(ideal)
    _, nonzero = _prime_failure_scan(ideal)
    return nonzero is None, nonzero


def is_weakly_radical(ideal: Ideal):
    """0 != x**t in I for some t forces x in I; returns (ok, (x, t) or
    None) with the least such t.  Each power chain stops at zero (every
    later power is zero) or at its first repeated power (every later
    power was already seen)."""
    _require_proper(ideal)
    ring = ideal.ring
    members = ideal.elements
    zero = ring.zero
    for x in ring.representatives:
        if x in members:
            continue
        seen = set()
        y, t = x, 1
        while y not in seen:
            if y in members:
                if y != zero:
                    return False, (x, t)
                break
            seen.add(y)
            y, t = ring.mul(y, x), t + 1
    return True, None


def is_n_absorbing(
    ideal: Ideal,
    n: int,
    weak: bool = False,
    budget: int = DEFAULT_ABSORBING_BUDGET,
):
    """Whenever a product of n+1 elements lies in I (nonzero, for the weak
    variant), some n of them already multiply into I.

    Products are symmetric, so tuples are swept as multisets, in
    ``combinations_with_replacement`` order over the class table; the
    first failing multiset is returned sorted, and it is the first over
    all elements.  The sweep is depth first and cuts every prefix of at
    most n factors whose product already lies in I: every completion of
    it has an n-subproduct in I (leave out a factor after the prefix),
    so the cut holds no failure and the first witness is the one a full
    scan finds.

    The answer of each (ideal, n, weak) sweep is remembered (up to 4096
    of them).  Raises `AbsorbingBudgetError` when order**(n+1) exceeds
    the budget, checked before any remembered answer is read.
    """
    _require_proper(ideal)
    _require_positive(n)
    required = ideal.ring.order ** (n + 1)
    if required > budget:
        raise AbsorbingBudgetError(required, budget)
    witness = _first_absorbing_failure(ideal, n, weak)
    return witness is None, witness


# bounded; holds the 1795 in-budget weak (ideal, n) sweeps of the default family
@lru_cache(maxsize=4096)
def _first_absorbing_failure(ideal: Ideal, n: int, weak: bool):
    """The first failing multiset of `is_n_absorbing`, or None: the
    pruned depth-first search over nondecreasing index sequences of the
    class table."""
    ring = ideal.ring
    elements = ring.representatives
    members = ideal.elements
    mul = ring.mul
    zero = ring.zero
    size = len(elements)

    def extend(start, prefix, left_out, chosen):
        # prefix: product of `chosen`; left_out[j]: that product without chosen[j]
        if len(chosen) < n:
            for i in range(start, size):
                x = elements[i]
                product = mul(prefix, x)
                if product in members:
                    continue
                found = extend(
                    i, product, [mul(q, x) for q in left_out] + [prefix], chosen + (x,)
                )
                if found is not None:
                    return found
            return None
        # last factor; leaving it out gives `prefix`, which the cut keeps outside I
        for i in range(start, size):
            x = elements[i]
            total = mul(prefix, x)
            if total not in members or (weak and total == zero):
                continue
            for q in left_out:
                if mul(q, x) in members:
                    break
            else:
                return chosen + (x,)
        return None

    return extend(0, ring.one, [], ())
