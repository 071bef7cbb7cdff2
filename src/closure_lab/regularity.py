"""(m,n)-von Neumann regularity of elements and rings.

An element x is (m,n)-vnr when x**m * r == x**n is solvable for r, that
is, when x**m divides x**n (x**n lies in x**m R).  Every decision here
goes through that one divisibility test, `FiniteRing.divides`; only
`is_mn_vnr` goes on to search for the witness r.  A ring is
(m,n)-regular when every element is; x is (m,n)-vnr iff ux is, for a
unit u, so ring-level sweeps run over the class table
`FiniteRing.representatives`.  For a fixed element the set of solvable
pairs always has the shape B_k = {(m, n): m <= n or n >= k},
and `vnr_profile_element` finds the k.  B_omega (pairs with m <= n only)
is representable for API completeness but unreachable from finite rings:
every finite commutative ring is strongly pi-regular, which the profile
computation asserts by always terminating with a finite k.
Many-cell questions read `vnr_rows` (one associate class) and `regular_rows`
(one ring), tables kept on the ring; an entry's table reads its powers off
the ring's power chains (`closure.power_chains`), and equal tables and
rows of one ring are one object (`_interned`).  Searches that stop at the
first answer ask `_is_vnr` one pair at a time, so a one-shot query builds
no table.
"""

from __future__ import annotations

from .closure import (
    STATUS_CLOSED,
    STATUS_NOT_WEAKLY,
    _require_positive,
    power_chains,
    status_grid,
)
from .ideals import enumerate_ideals
from .records import Record, _set
from .rings import FiniteRing, _serialize, per_ring


class VnrProfile(Record):
    """The pair set B_k (k = None encodes B_omega).

    B_k contains (m, n) iff m <= n or n >= k; B_1 is every pair and the
    chain B_1 > B_2 > ... > B_omega is strictly decreasing.
    """

    __slots__ = _fields = ("k",)
    k: int | None

    def __init__(self, k: int | None):
        _set(self, "k", k)
        _set(self, "_values", (k,))

    @property
    def is_omega(self) -> bool:
        return self.k is None

    def contains(self, m: int, n: int) -> bool:
        if m <= n:
            return True
        return self.k is not None and n >= self.k

    def __str__(self):
        return "B(omega)" if self.k is None else f"B({self.k})"


class ConsistencyError(RuntimeError):
    """Two independently computed routes to the same answer disagreed."""


def _is_vnr(ring: FiniteRing, x, m: int, n: int) -> bool:
    """x is (m,n)-vnr: x**m divides x**n."""
    _require_positive(m, n)
    return ring.divides(ring.power(x, m), ring.power(x, n))


def is_mn_vnr(ring: FiniteRing, x, m: int, n: int):
    """Whether x**m * r == x**n is solvable; returns (ok, the first such r
    in canonical order, or None)."""
    ring.require_member(x)
    if not _is_vnr(ring, x, m, n):
        return False, None
    xm, xn = ring.power(x, m), ring.power(x, n)
    return True, next(r for r in ring.elements if ring.mul(xm, r) == xn)


def vnr_rows(ring: FiniteRing, x, size: int) -> tuple:
    """``rows[m][n]`` is `_is_vnr(ring, x, m, n)` for 1 <= m, n <= size;
    row 0 and column 0 hold None.  x is (m,n)-vnr iff ux is, for a unit u
    ((ux)**m divides (ux)**n iff x**m divides x**n), so every element
    reads the table of its class-table entry, `FiniteRing.class_entry`."""
    return _entry_rows(ring, ring.class_entry(x), size)


@per_ring
def _entry_rows(ring: FiniteRing, x, size: int) -> tuple:
    """`vnr_rows` of the class-table entry x.  x**t R is one ideal for
    every t >= L = `power_bound`, so x**t and x**L are associates: only
    cells up to L are decided, once per entry, and a longer table pads
    the L table, repeating its last row and column.  Within L the powers
    are read off the entry's power chain (x, ..., x**k), and x**t = x**k
    for k <= t <= L, so cells past k repeat row and column k too.  Every
    decided cell is a divisibility test, never read off the B_k shape the
    theorems test.  Rows and tables are interned per ring, so equal ones
    are one object."""
    _require_positive(size)
    top = ring.power_bound
    if size > top:
        known, rows = top, list(_entry_rows(ring, x, top))
    else:
        chain = power_chains(ring).chains[x]
        known = min(len(chain), size)
        powers = (ring.one, *chain[:known])
        rows = [(None,) * (known + 1)]
        for m in range(1, known + 1):
            rows.append((None, *(ring.divides(powers[m], powers[n]) for n in range(1, known + 1))))
    pad = size - known
    if pad:
        rows = [(*row, *row[-1:] * pad) for row in rows]
        rows += rows[-1:] * pad
    intern = _interned(ring).setdefault
    table = tuple(intern(row, row) for row in rows)
    return intern(table, table)


@per_ring
def _interned(ring: FiniteRing) -> dict:
    # every distinct vnr row and table of the ring, each its own key
    return {}


def vnr_grid(ring: FiniteRing, x, max_m: int = 6, max_n: int = 6) -> dict:
    """Solvability table {(m, n): bool} for 1 <= m <= max_m, 1 <= n <= max_n."""
    ring.require_member(x)
    rows = vnr_rows(ring, x, max(max_m, max_n, 1))
    return {(m, n): rows[m][n] for m in range(1, max_m + 1) for n in range(1, max_n + 1)}


def vnr_profile_element(ring: FiniteRing, x) -> VnrProfile:
    """Smallest k with x (k+1, k)-vnr; at most L = `power_bound`, since
    x**(L+1) R = x**L R."""
    ring.require_member(x)
    for n in range(1, ring.power_bound + 1):
        if _is_vnr(ring, x, n + 1, n):
            return VnrProfile(n)
    raise ConsistencyError(
        f"no profile within the power bound for {x!r} in {ring.spec_str}"
    )


def vnr_profile_ring(ring: FiniteRing) -> VnrProfile:
    """B_k with k the maximum of the element profiles (equivalently, the
    intersection of the element pair sets)."""
    k = 1
    for x in ring.representatives:
        k = max(k, vnr_profile_element(ring, x).k)
    return VnrProfile(k)


@per_ring
def regular_rows(ring: FiniteRing) -> tuple:
    """``rows[m][n]``: every class-table entry is (m,n)-vnr, for 1 <= m, n
    <= L = `power_bound`; past L the answer is the one at L.  Its rows are
    interned with the entries' (`_interned`)."""
    top = ring.power_bound
    tables = [vnr_rows(ring, x, top) for x in ring.representatives]
    rows = [(None,) * (top + 1)]
    for m in range(1, top + 1):
        rows.append((None, *(all(t[m][n] for t in tables) for n in range(1, top + 1))))
    intern = _interned(ring).setdefault
    return tuple(intern(row, row) for row in rows)


def is_mn_regular_ring(ring: FiniteRing, m: int, n: int) -> bool:
    """Every element is (m,n)-vnr: one cell of `regular_rows`."""
    _require_positive(m, n)
    top = ring.power_bound
    return regular_rows(ring)[m if m < top else top][n if n < top else top]


def _weakly_closed_characterization(ring: FiniteRing, m: int, n: int) -> bool:
    """Element-level form of "every proper ideal is weakly (m,n)-closed":
    w**m == 0 on the nilradical and every non-nilpotent is (m,n)-vnr.
    Divisibility answers come from the class-table rows `vnr_rows`, never
    from `status_grid`, so this stays an independent cross-check."""
    _require_positive(m, n)
    top = ring.power_bound
    nil_index, tables = _characterization_summary(ring)
    m_cell, n_cell = min(m, top), min(n, top)
    return nil_index <= m and all(t[m_cell][n_cell] for t in tables)


@per_ring
def _characterization_summary(ring: FiniteRing) -> tuple:
    """What `_weakly_closed_characterization` reads of the class table:
    the largest nilpotency index among its nilpotent entries, and the
    distinct (interned) `vnr_rows` tables, up to L, of the others."""
    top = ring.power_bound
    nil = ring.nilpotency_indices
    distinct = {}
    for x in ring.representatives:
        if x not in nil:
            table = vnr_rows(ring, x, top)
            distinct[id(table)] = table
    return max(nil[x] for x in ring.representatives if x in nil), tuple(distinct.values())


def all_proper_ideals_weakly_closed(ring: FiniteRing, m: int, n: int) -> bool:
    """Whether every proper ideal is weakly (m,n)-closed, for m > n.

    Decided by the direct sweep over the (complete) ideal lattice and
    cross-checked against the element-level characterization (every
    non-nilpotent element (m,n)-vnr and w**m == 0 on the nilradical); a
    disagreement raises `ConsistencyError`.
    """
    if m <= n:
        raise ValueError("requires m > n")
    characterization = _weakly_closed_characterization(ring, m, n)
    direct = all(
        status_grid(ideal, m)[m][n] != STATUS_NOT_WEAKLY
        for ideal in enumerate_ideals(ring).proper
    )
    if direct != characterization:
        raise ConsistencyError(
            f"{ring.spec_str} (m={m}, n={n}): ideal sweep says {direct}, "
            f"element characterization says {characterization}"
        )
    return direct


def all_proper_ideals_closed(ring: FiniteRing, m: int, n: int) -> bool:
    """Direct sweep: every proper ideal is (m,n)-closed."""
    _require_positive(m, n)
    return all(
        status_grid(ideal, max(m, n))[m][n] == STATUS_CLOSED
        for ideal in enumerate_ideals(ring).proper
    )


def is_strongly_pi_regular(ring: FiniteRing):
    """Smallest n such that x**(2n) * r == x**n is solvable for every x,
    found by direct ascending search up to L = `power_bound`, where
    x**(2L) R = x**L R.  Finite rings always have one; returns (True, n),
    or (False, None) should the bound ever be passed.
    """
    for n in range(1, ring.power_bound + 1):
        if all(_is_vnr(ring, x, 2 * n, n) for x in ring.representatives):
            return True, n
    return False, None


def regularity_record(ring: FiniteRing) -> dict:
    """Serialized ring profile, including the first element attaining the
    ring's k (the witness that k cannot be lowered)."""
    # the ring's k is the largest element k (`vnr_profile_ring`), read
    # here from one pass over the class table
    ks = [vnr_profile_element(ring, x).k for x in ring.representatives]
    k = max(ks)
    witness = ring.representatives[ks.index(k)]
    strongly, smallest = is_strongly_pi_regular(ring)
    if strongly and smallest != k:
        raise ConsistencyError(
            f"{ring.spec_str}: profile k={k} but smallest strongly "
            f"pi-regular exponent is {smallest}"
        )
    return {
        "ring_spec": ring.spec_str,
        "k": k,
        "strongly_pi_regular": strongly,
        "per_element_max_witness": _serialize(witness),
    }
