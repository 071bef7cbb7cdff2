"""Deciders for power-closure properties of ideals, with witnesses.

A proper ideal I is (m,n)-closed when x**m in I forces x**n in I, and
weakly (m,n)-closed when that is only required for x**m nonzero.  The
gap between the two notions is witnessed by unbreakable-zero elements:
a with a**m == 0 but a**n not in I.

Two numbers per element decide both notions: tau(x), the least t with
x**t in I, and nu(x), the nilpotency index.  Only tau depends on the
ideal.  So each ring keeps, once, the power chain x, x**2, ... and nu of
every entry of its class table `FiniteRing.representatives` (one entry
per associate class; `power_chains`), and one `bytes` of tau values per
ideal value, aligned with that table, 0 meaning none (`_thresholds`).  x breaks (m,n)-closedness exactly when n < tau(x) <= m,
and weak (m,n)-closedness when also x**m != 0.

Status questions are answered by `status_grid`, which reads the status
of every (m, n) of an ideal off the distinct (tau, nu) pairs of that
table at once; callers that ask about many pairs fetch the grid once.
A grid depends only on those pairs, L and its length, so it is built
once per such signature (`_signature_grid`): ideals with equal
signatures share one grid object, which lets callers key on identity.
Unbreakable zeros are read off the same bytes: a nilpotent has the tau of
its class-table entry, found once per ring (`_nil_positions`).
Witness questions are answered by the three closedness deciders
(`classify`, `is_mn_closed`, `is_weakly_mn_closed`), which read one
sweep of the table, `_failure_scan`, finding the first failing x and
the first failing x with x**m != 0; like every first-witness sweep here
it finds the first witness a scan of all elements finds.

`is_n_absorbing` prunes its multiset sweep and remembers each answer;
its docstring says why the first witness is unchanged, and why an
ideal weakly n-absorbing is weakly (n+1)-absorbing.

Where the tables live: every table is built through `rings.per_ring`
and kept on its ring, once per ring and arguments.  Power chains and
the nilpotents' class positions are keyed by the ring alone; tau bytes,
status grids (by size) and n-absorbing answers (by n and weak) by the
ideal's key, so every equal ideal of a ring reads one table, and the
table lives as long as the ring.  No table refers to an ideal or a
ring.  Only `closure` reads tau bytes.  The one module-level cache here,
`_signature_grid`, is keyed on small signatures, and
`closure_lab.clear_caches` empties it.
"""

from __future__ import annotations

from functools import lru_cache

from .ideals import Ideal, _prime_failure_scan
from .records import Record, _set
from .rings import FiniteRing, _generated_key, _serialize, per_ring

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


class ClosednessReport(Record):
    """Three-way classification of one (ideal, m, n) instance.

    For status "weakly_only" the witness is the first unbreakable-zero
    element; for "not_weakly" it is the first x with 0 != x**m in I and
    x**n not in I; for "closed" there is no witness.
    """

    __slots__ = _fields = ("ideal", "m", "n", "status", "witness")
    ideal: Ideal
    m: int
    n: int
    status: str
    witness: object

    def __init__(self, ideal: Ideal, m: int, n: int, status: str, witness: object = None):
        _set(self, "ideal", ideal)
        _set(self, "m", m)
        _set(self, "n", n)
        _set(self, "status", status)
        _set(self, "witness", witness)
        _set(self, "_values", (ideal, m, n, status, witness))

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


class PowerChains:
    """The powers of every class-table entry of one ring (`power_chains`).

    ``chains[x]`` is (x, x**2, ..., x**k) for the entry x, in table order,
    with k the least t such that x**(t+1) == x**t, or L = `power_bound`
    when there is none before L.  So x**t == chains[x][min(t, k) - 1] for
    every 1 <= t <= L.  ``nus`` holds nu(x), the least t with x**t == 0,
    aligned with the table: zero is such a fixed point, so nu(x) is k when
    x**k == 0, and 0 (none) otherwise.
    """

    __slots__ = ("chains", "nus")

    def __init__(self, ring: FiniteRing):
        mul, zero, bound = ring.mul, ring.zero, ring.power_bound
        chains = {}
        for x in ring.representatives:
            chain = [x]
            y = x
            while len(chain) < bound:
                y = mul(y, x)
                if y == chain[-1]:
                    break
                chain.append(y)
            chains[x] = tuple(chain)
        self.chains = chains
        self.nus = bytes(len(c) if c[-1] == zero else 0 for c in chains.values())


@per_ring
def power_chains(ring: FiniteRing) -> PowerChains:
    """The `PowerChains` of a ring, built once and kept on the ring."""
    return PowerChains(ring)


def _thresholds(ideal: Ideal) -> bytes:
    """tau(x) for every class-table entry x, one byte each in table order,
    0 meaning none: the least t >= 1 with x**t in I.  tau <= L and tau <=
    nu(x) whenever they exist, so each tau is read off the entry's power
    chain (`power_chains`), and x**t lies in I exactly when t >= tau.
    Callers zip the bytes with ``power_chains(ring)``."""
    return _threshold_table(ideal.ring, ideal.key)


@per_ring
def _threshold_table(ring: FiniteRing, key) -> bytes:
    members = Ideal(ring, key).membership()
    taus = bytearray()
    for chain in power_chains(ring).chains.values():
        for t, y in enumerate(chain, 1):
            if y in members:
                taus.append(t)
                break
        else:
            taus.append(0)
    return bytes(taus)


_STATUSES = (STATUS_CLOSED, STATUS_WEAKLY_ONLY, STATUS_NOT_WEAKLY)


def status_grid(ideal: Ideal, size: int) -> tuple:
    """The status of every (m, n) with 1 <= m, n <= size: ``grid[m][n]``
    is `STATUS_CLOSED`, `STATUS_WEAKLY_ONLY` or `STATUS_NOT_WEAKLY`, the
    status `classify` reports.  Exponents are positive, so row 0 and
    column 0 hold None; they only let the grid be indexed by exponent.

    x breaks (m,n)-closedness exactly when n < tau(x) <= m, and weak
    (m,n)-closedness when also nu(x) > m or nu(x) is None (see
    `_thresholds`), so the grid follows from the distinct (tau, nu)
    pairs of the threshold table; rows with tau = 1 never satisfy
    n < tau and are left out.  Past L = `power_bound` the grid repeats
    itself (see `_signature_grid`), so it depends only on those pairs,
    min(size, L) and size: ideals with equal signatures share one grid
    object.
    One grid per (ideal value, size), kept on the ring (`_grid_of`); the
    checks run on a miss only, and a failed call is not remembered.
    """
    return _grid_of(ideal.ring, ideal.key, size)


@per_ring
def _grid_of(ring: FiniteRing, key, size: int) -> tuple:
    """The status grid of `status_grid`, built after its checks."""
    _require_proper(Ideal(ring, key))
    _require_positive(size)
    taus, nus = _threshold_table(ring, key), power_chains(ring).nus
    pairs = frozenset((tau, nu or None) for tau, nu in zip(taus, nus) if tau > 1)
    return _signature_grid(pairs, min(size, ring.power_bound), size)


# bounded; 113 signatures for the 2852 ideals of the pinned 148-ring family
@lru_cache(maxsize=4096)
def _signature_grid(pairs: frozenset, top: int, size: int) -> tuple:
    """The grid of `status_grid` from its signature: the (tau, nu) pairs
    with tau > 1, top = min(size, L) and size.

    Each pair marks the cells n < tau <= m, as not_weakly when nu is None
    or nu > m and weakly_only otherwise, and a cell keeps the worse of
    its marks.  tau <= L and nu <= L whenever they exist, so for m >= L
    the tests tau <= m and nu > m give what they give at m = L, and for
    n >= L the test n < tau fails as it does at n = L.  Hence status(m, n)
    = status(min(m, L), min(n, L)), and only the cells up to top are
    computed; longer rows and columns repeat the last computed ones.
    """
    worst = [[0] * (top + 1) for _ in range(top + 1)]
    for tau, nu in pairs:
        for m in range(tau, top + 1):
            level = 2 if nu is None or nu > m else 1
            row = worst[m]
            for n in range(1, tau):
                if row[n] < level:
                    row[n] = level
    rows = [(None,) * (size + 1)]
    for m in range(1, top + 1):
        cells = [_STATUSES[level] for level in worst[m][1:]]
        rows.append((None, *cells, *(cells[-1:] * (size - top))))
    rows.extend(rows[-1:] * (size - top))
    return tuple(rows)


def _failure_scan(ideal: Ideal, m: int, n: int):
    """The one sweep behind every (m,n)-closedness decision.

    Returns ``(first, nonzero)``: the first x in canonical order with
    x**m in I and x**n not in I, that is n < tau(x) <= m, and the first
    such x with x**m != 0, that is nu(x) > m or None (each None when
    there is none).  The sweep reads the `_thresholds` table and stops
    at the latter.
    """
    _require_proper(ideal)
    _require_positive(m, n)
    chains = power_chains(ideal.ring)
    first = None
    for x, tau, nu in zip(chains.chains, _thresholds(ideal), chains.nus):
        if n < tau <= m:
            if first is None:
                first = x
            if not nu or nu > m:
                return first, x
    return first, None


def _nonzero_power_lands_in(ideal: Ideal, m: int) -> bool:
    """Whether 0 != x**m lies in I for some x: tau(x) <= m < nu(x), or x
    is not nilpotent, read off the tau and nu bytes (0 meaning none)."""
    taus, nus = _thresholds(ideal), power_chains(ideal.ring).nus
    return any(0 < tau <= m and (not nu or nu > m) for tau, nu in zip(taus, nus))


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
    """All a with a**m == 0 and a**n not in I, in canonical order.

    a**m == 0 means nu(a) <= m, and a**n lies outside I exactly when
    n < tau(a).  An associate of a class-table entry has the entry's tau,
    so tau(a) is the `_thresholds` byte at a's class position
    (`_nil_positions`).
    """
    _require_proper(ideal)
    _require_positive(m, n)
    ring = ideal.ring
    taus = _thresholds(ideal)
    return tuple(
        a
        for (a, nu), i in zip(ring.nilpotency_indices.items(), _nil_positions(ring))
        if nu <= m and n < taus[i]
    )


@per_ring
def _nil_positions(ring: FiniteRing) -> tuple:
    """The class-table position of every nilpotent, aligned with
    `nilpotency_indices`: the position of the entry that generates aR."""
    table = ring._class_positions
    return tuple(table[_generated_key(ring, (a,))] for a in ring.nilpotency_indices)


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
    None) with the least such t.  Read off `_thresholds`: x fails exactly
    when 1 < tau(x) and x**tau != 0, that is tau(x) < nu(x) or x is not
    nilpotent, and its least t is tau(x)."""
    _require_proper(ideal)
    chains = power_chains(ideal.ring)
    for x, tau, nu in zip(chains.chains, _thresholds(ideal), chains.nus):
        if tau > 1 and (not nu or tau < nu):
            return False, (x, tau)
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

    A weakly n-absorbing ideal is weakly (n+1)-absorbing: let 0 != a_1
    ... a_(n+2) lie in I and group the last two factors into b = a_(n+1)
    a_(n+2).  The n+1 factors a_1, ..., a_n, b have a nonzero product in
    I, so n of them multiply into I.  If b is among those n, they are
    n+1 of the original factors; if not, a_1 ... a_n lies in I and so
    does a_1 ... a_(n+1).  Without "nonzero" the same grouping proves the
    plain form (Anderson and Badawi, Comm. Algebra 39 (2011)).  So when
    the answer kept for n - 1 is None, the answer at n is None without a
    sweep.

    Each (ideal value, n, weak) answer is kept on the ring
    (`_absorbing_answer`).  Raises `AbsorbingBudgetError` when order**(n+1)
    exceeds the budget, checked before any kept answer is read.
    """
    _require_proper(ideal)
    _require_positive(n)
    required = ideal.ring.order ** (n + 1)
    if required > budget:
        raise AbsorbingBudgetError(required, budget)
    witness = _absorbing_answer(ideal.ring, ideal.key, n, weak)
    return witness is None, witness


@per_ring
def _absorbing_answer(ring: FiniteRing, key, n: int, weak: bool):
    # absorbing at n - 1 means absorbing at n (see `is_n_absorbing`): read
    # the kept answer at n - 1 without building it; no witness is the
    # empty tuple, so only a kept None matches
    if ring.tables.get((_absorbing_answer.__wrapped__, key, n - 1, weak), ()) is None:
        return None
    return _absorbing_sweep(Ideal(ring, key), n, weak)


def _absorbing_sweep(ideal: Ideal, n: int, weak: bool):
    """The pruned depth-first search of `is_n_absorbing` over
    nondecreasing index sequences of the class table: its first failing
    multiset, or None."""
    ring = ideal.ring
    elements = ring.representatives
    members = ideal.membership()
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

    witness = extend(0, ring.one, [], ())
    # the recursive closure refers to itself; cut that cycle, so that it is
    # freed now and not left to the cyclic collector (which `cli.run` stops)
    del extend
    return witness
