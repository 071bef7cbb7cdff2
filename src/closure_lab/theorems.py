"""Exhaustive verification of the theorem catalog over instance families.

Every catalog entry sweeps its hypothesis-conclusion (or biconditional)
over all instances drawn from a family and returns a `TheoremVerdict`.
Implications count an instance as vacuous when the hypothesis fails.
Biconditionals share one tally rule, `_Tally.agree`: the compared
statements must agree, and the instance is substantive when they all
hold and vacuous when they all fail (nothing positive was exercised).
Budget-limited sweeps are skipped, never silently truncated: a verdict
only reads "pass" when at least something was checked and nothing
failed.  A theorem whose family holds no instance at all reads "empty".

Verdicts are deterministic for a fixed family: instances are generated
in canonical order, the first failure wins, and worker parallelism is
per theorem, so it cannot reorder anything observable.

Checkers read an ideal's statuses through `_grid`, one status grid per
ideal, and sweep every proper ideal of the family rings through
`_ideal_grids`.  Ideals with one signature share one grid object
(`closure.status_grid`), so a checker that reads only grids walks each
distinct combination of grid objects once, through `_Tally.once` with
an `_Tally.identity` key, and a ring-wide ``all(...)`` runs over the
ring's distinct grids (`_distinct`).
"""

from __future__ import annotations

from functools import partial
from itertools import product, repeat
from math import inf

from . import closure
from .closure import (
    AbsorbingBudgetError,
    STATUS_CLOSED,
    STATUS_NOT_WEAKLY,
    STATUS_WEAKLY_ONLY,
    is_n_absorbing,
    status_grid,
    unbreakable_zero_elements,
)
from .families import InstanceFamily, default_family
from .ideals import (
    Ideal,
    enumerate_ideals,
    ideal_from_generators,
    image_ideal,
    krull_dim,
    product_ideal,
    quotient_ring,
    split_product_ideal,
)
from .records import Record, _set
from .regularity import (
    _is_vnr,
    _weakly_closed_characterization,
    is_mn_regular_ring,
    is_strongly_pi_regular,
    vnr_profile_element,
    vnr_profile_ring,
    vnr_rows,
)
from .rings import (
    CyclicRing,
    FiniteRing,
    IdealizationRing,
    ProductRing,
    _factorize,
    _is_prime_number,
    _serialize,
    build_ring,
)
from .specs import CyclicZ, parse_ring_spec

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped(budget)"
EMPTY = "empty"


class TheoremVerdict(Record):
    __slots__ = _fields = (
        "theorem_id",
        "instances_checked",
        "vacuous_count",
        "status",
        "counterexample",
    )
    theorem_id: str
    instances_checked: int
    vacuous_count: int
    status: str
    counterexample: dict | None

    def __init__(
        self,
        theorem_id: str,
        instances_checked: int,
        vacuous_count: int,
        status: str,
        counterexample: dict | None = None,
    ):
        _set(self, "theorem_id", theorem_id)
        _set(self, "instances_checked", instances_checked)
        _set(self, "vacuous_count", vacuous_count)
        _set(self, "status", status)
        _set(self, "counterexample", counterexample)
        _set(self, "_values", (theorem_id, instances_checked, vacuous_count, status, counterexample))

    @property
    def substantive_count(self) -> int:
        return self.instances_checked - self.vacuous_count

    def to_record(self) -> dict:
        record = {
            "theorem_id": self.theorem_id,
            "instances_checked": self.instances_checked,
            "vacuous_count": self.vacuous_count,
            "status": self.status,
        }
        if self.counterexample is not None:
            record["counterexample"] = self.counterexample
        return record


class _Tally:
    def __init__(self, theorem_id: str):
        self.theorem_id = theorem_id
        self.checked = 0
        self.vacuous_count = 0
        self.skipped = 0
        self._walked: dict = {}  # key -> counts of a passed `once` walk
        self._kept: dict = {}  # id -> object, for every object of an `identity` key

    def substantive(self):
        self.checked += 1

    def vacuous(self):
        self.checked += 1
        self.vacuous_count += 1

    def skip(self):
        self.skipped += 1

    def agree(self, *statements) -> bool:
        """The biconditional rule: the compared statements must agree.
        When they do, the instance counts as substantive if they all hold
        and vacuous if they all fail; returns False on disagreement, and
        the caller then reports the failure."""
        if any(s != statements[0] for s in statements[1:]):
            return False
        if statements[0]:
            self.substantive()
        else:
            self.vacuous()
        return True

    def once(self, key, walk):
        """Tally one element: run `walk()`, which tallies its instances and
        returns a failing verdict or None, the first time `key` is seen,
        and add that walk's counts on every later sight.  The key is the
        value of everything the walk reads, so a repeated key passes as its
        first walk did.  A failing walk is never remembered, so a failure
        is reported at the first element that has it, with the counts and
        witness of a walk over every element."""
        counts = self._walked.get(key)
        if counts is not None:
            self.checked += counts[0]
            self.vacuous_count += counts[1]
            return None
        checked, vacuous = self.checked, self.vacuous_count
        failure = walk()
        if failure is None:
            self._walked[key] = (self.checked - checked, self.vacuous_count - vacuous)
        return failure

    def identity(self, *objects) -> tuple:
        """A `once` key for `objects` by identity, cheap to hash however
        large they are: equal status grids are one object per signature
        (`closure.status_grid`).  The tally keeps every keyed object alive
        for its own life, so no id in a key can be reused by another
        object."""
        kept = self._kept
        for obj in objects:
            kept[id(obj)] = obj
        return tuple(map(id, objects))

    def fail(self, **record) -> TheoremVerdict:
        self.checked += 1
        return TheoremVerdict(
            self.theorem_id, self.checked, self.vacuous_count, FAIL, record
        )

    def done(self) -> TheoremVerdict:
        status = PASS if self.checked else SKIPPED if self.skipped else EMPTY
        return TheoremVerdict(self.theorem_id, self.checked, self.vacuous_count, status)


# --- shared plumbing -----------------------------------------------------------


def _family_rings(family: InstanceFamily, order_cap=None, kind=None):
    rings = []
    for spec in family.ring_specs:
        ring = build_ring(spec, family.max_order)
        if order_cap is not None and ring.order > order_cap:
            continue
        if kind is not None and not isinstance(ring, kind):
            continue
        rings.append(ring)
    return rings


def _proper_ideals(ring: FiniteRing):
    return enumerate_ideals(ring).proper


def _grid(family: InstanceFamily, ideal: Ideal) -> tuple:
    """The status grid of `ideal`, as long as any checker of `family` reads
    it: the one place that knows that length."""
    return status_grid(ideal, family.max_exponent)


def _ideal_grids(family: InstanceFamily, **filters):
    """(ring, ideal, `_grid`) for every proper ideal of every family ring
    that passes the `_family_rings` filters, in canonical order."""
    for ring in _family_rings(family, **filters):
        for ideal in _proper_ideals(ring):
            yield ring, ideal, _grid(family, ideal)


def _status_grids(ring: FiniteRing, family: InstanceFamily) -> list:
    """The `_grid` of every proper ideal, in enumeration order."""
    return [_grid(family, ideal) for ideal in _proper_ideals(ring)]


def _distinct(grids) -> list:
    """`grids` without repeats, by identity: ideals with one signature
    share one grid object, so a ring-wide ``all(...)`` reads each once."""
    return list({id(g): g for g in grids}.values())


def _instance(ring, ideal=None, m=None, n=None, **extra) -> dict:
    record: dict = {"ring": ring.spec_str}
    if ideal is not None:
        record["ideal_gens"] = [_serialize(g) for g in ideal.generators]
        record["ideal"] = [_serialize(e) for e in ideal.members]
    if m is not None:
        record["m"] = m
    if n is not None:
        record["n"] = n
    for key, value in extra.items():
        record[key] = _serialize(value) if isinstance(value, tuple) else value
    return record


# --- basic closure facts (T-BASIC-1..4) ---------------------------------------


def _absorbing_implies_weakly(theorem_id, family, m_values, detail):
    """Weakly n-absorbing ideals are weakly (m,n)-closed for every m in
    `m_values(n)`; the shared body of T-BASIC-1 and T-BASIC-3."""
    tally = _Tally(theorem_id)
    for ring, ideal, grid in _ideal_grids(family):
        for n in family.n_values:
            try:
                hyp, _ = is_n_absorbing(ideal, n, weak=True, budget=family.absorbing_budget)
            except AbsorbingBudgetError:
                tally.skip()
                continue
            if not hyp:
                tally.vacuous()
                continue
            for m in m_values(n):
                if grid[m][n] == STATUS_NOT_WEAKLY:
                    return tally.fail(**_instance(ring, ideal, m, n), detail=detail)
            tally.substantive()
    return tally.done()


def _check_basic_1(family):
    return _absorbing_implies_weakly(
        "T-BASIC-1",
        family,
        lambda n: (n + 1,),
        "weakly n-absorbing ideal is not weakly (n+1,n)-closed",
    )


def _check_basic_2(family):
    tally = _Tally("T-BASIC-2")
    for ring, ideal, grid in _ideal_grids(family):

        def walk():
            for m, n in family.all_pairs:
                if grid[m][n] == STATUS_NOT_WEAKLY:
                    tally.vacuous()
                    continue
                for n_bigger in range(n, family.grid_max + 1):
                    if grid[m][n_bigger] == STATUS_NOT_WEAKLY:
                        return tally.fail(
                            **_instance(ring, ideal, m, n),
                            n_bigger=n_bigger,
                            detail="weak closedness is not monotone in the target exponent",
                        )
                tally.substantive()
            return None

        failure = tally.once(tally.identity(grid), walk)
        if failure is not None:
            return failure
    return tally.done()


def _check_basic_3(family):
    return _absorbing_implies_weakly(
        "T-BASIC-3",
        family,
        lambda n: range(1, family.grid_max + 1),
        "weakly n-absorbing ideal is not weakly (m,n)-closed",
    )


def _check_basic_4(family):
    tally = _Tally("T-BASIC-4")
    for ring in _family_rings(family):
        ideals = _proper_ideals(ring)
        grids = _status_grids(ring, family)
        # the meet of two proper ideals is a proper ideal of the ring
        grid_of = {ideal.key: grid for ideal, grid in zip(ideals, grids)}
        for i, (first, first_grid) in enumerate(zip(ideals, grids)):
            for second, second_grid in zip(ideals[i + 1 :], grids[i + 1 :]):
                meet = grid_of[(first & second).key]

                def walk():
                    for m, n in family.all_pairs:
                        if STATUS_NOT_WEAKLY in (first_grid[m][n], second_grid[m][n]):
                            tally.vacuous()
                            continue
                        if meet[m][n] == STATUS_NOT_WEAKLY:
                            return tally.fail(
                                **_instance(ring, first, m, n),
                                other_ideal=[_serialize(e) for e in second.members],
                                detail="intersection of weakly closed ideals is not weakly closed",
                            )
                        tally.substantive()
                    return None

                failure = tally.once(tally.identity(first_grid, second_grid, meet), walk)
                if failure is not None:
                    return failure
    return tally.done()


# --- unbreakable-zero consequences (T-SHIFT, T-NIL, T-NIL-CHAR) ----------------


def _shift_index(ring, a, i):
    # nu(a + i), inf when a + i is not nilpotent: (a + i)**m == 0 iff it is <= m
    return ring.nilpotency_indices.get(ring.add(a, i), inf)


def _check_shift(family):
    tally = _Tally("T-SHIFT")
    for ring, ideal, grid in _ideal_grids(family):
        index = ring.nilpotency_indices
        # a -> the largest _shift_index(a, i) over i in I, that is the
        # largest nu over the coset a + I: asked once per coset
        worst = {}
        for m, n in family.mn_pairs:
            # an unbreakable zero a (a**m == 0, a**n not in I) breaks
            # closedness, so a weakly closed I has one iff it is weakly-only
            if grid[m][n] != STATUS_WEAKLY_ONLY:
                tally.vacuous()
                continue
            for a in unbreakable_zero_elements(ideal, m, n):
                if a not in worst:
                    coset = [ring.add(a, i) for i in ideal.members]
                    worst.update(dict.fromkeys(coset, max(index.get(b, inf) for b in coset)))
                if worst[a] > m:
                    # the first failing i, as a scan of the members finds it
                    i = next(i for i in ideal.members if _shift_index(ring, a, i) > m)
                    return tally.fail(
                        **_instance(ring, ideal, m, n),
                        element=_serialize(a),
                        shifted_by=_serialize(i),
                        detail="(a + i)**m != 0 for an unbreakable-zero a and i in I",
                    )
            tally.substantive()
    return tally.done()


def _check_nil(family):
    tally = _Tally("T-NIL")
    for ring, ideal, grid in _ideal_grids(family):
        nil = ring.nilpotents
        # the nilradical is an ideal: I lies in it iff its generators do
        inside = nil.issuperset(ideal.generators)

        def walk():
            for m, n in family.all_pairs:
                if grid[m][n] != STATUS_WEAKLY_ONLY:
                    tally.vacuous()
                    continue
                if not inside:
                    stray = next(e for e in ideal.members if e not in nil)
                    return tally.fail(
                        **_instance(ring, ideal, m, n),
                        element=_serialize(stray),
                        detail="weakly-only ideal is not contained in the nilradical",
                    )
                tally.substantive()
            return None

        failure = tally.once((*tally.identity(grid), inside), walk)
        if failure is not None:
            return failure
    return tally.done()


def _check_nil_char(family):
    tally = _Tally("T-NIL-CHAR")
    for ring, ideal, grid in _ideal_grids(family):
        for m, n in family.mn_pairs:
            if not (
                grid[m][n] == STATUS_WEAKLY_ONLY
                and ring.characteristic == m
                and _is_prime_number(m)
            ):
                tally.vacuous()
                continue
            for i in ideal.members:
                if ring.power(i, m) != ring.zero:
                    return tally.fail(
                        **_instance(ring, ideal, m, n),
                        element=_serialize(i),
                        detail="i**m != 0 despite prime characteristic m",
                    )
            tally.substantive()
    return tally.done()


# --- stability under quotients (T-QUOT) ---------------------------------------


def _check_quot(family):
    tally = _Tally("T-QUOT")
    for ring in _family_rings(family, order_cap=family.quotient_order_cap):
        ideals = _proper_ideals(ring)
        grids = _status_grids(ring, family)
        for small in ideals:
            quotient = quotient_ring(ring, small)
            for big, grid in zip(ideals, grids):
                if not small <= big:
                    continue
                image = _grid(family, image_ideal(quotient, big))

                def walk():
                    for m, n in family.mn_pairs:
                        if grid[m][n] == STATUS_NOT_WEAKLY:
                            tally.vacuous()
                            continue
                        if image[m][n] == STATUS_NOT_WEAKLY:
                            return tally.fail(
                                **_instance(ring, big, m, n),
                                modulus_ideal=[_serialize(e) for e in small.members],
                                detail="image of a weakly closed ideal is not weakly closed in the quotient",
                            )
                        tally.substantive()
                    return None

                failure = tally.once(tally.identity(grid, image), walk)
                if failure is not None:
                    return failure
    return tally.done()


# --- product rings (T-PROD-CLOSED, T-PROD-FACTOR, T-PROD-WEAK) -----------------


def _check_prod_closed(family):
    tally = _Tally("T-PROD-CLOSED")
    for ring, ideal, grid in _ideal_grids(family, kind=ProductRing):
        # an improper factor puts no condition on its side
        factor_grids = [
            _grid(family, factor)
            for factor in split_product_ideal(ring, ideal)
            if factor.is_proper
        ]

        def walk():
            for m, n in family.all_pairs:
                direct = grid[m][n] == STATUS_CLOSED
                condition = all(g[m][n] == STATUS_CLOSED for g in factor_grids)
                if not tally.agree(direct, condition):
                    return tally.fail(
                        **_instance(ring, ideal, m, n),
                        detail=f"direct closedness {direct} but factor condition {condition}",
                    )
            return None

        failure = tally.once(tally.identity(grid, *factor_grids), walk)
        if failure is not None:
            return failure
    return tally.done()


def _check_prod_factor(family):
    tally = _Tally("T-PROD-FACTOR")
    for ring in _family_rings(family, kind=ProductRing):
        full_left = ideal_from_generators(ring.left, (ring.left.one,))
        full_right = ideal_from_generators(ring.right, (ring.right.one,))
        # each proper factor ideal I, lifted to I x R or R x I
        lifts = [(f, product_ideal(ring, f, full_right)) for f in _proper_ideals(ring.left)]
        lifts += [(f, product_ideal(ring, full_left, f)) for f in _proper_ideals(ring.right)]
        for factor, lifted in lifts:
            factor_grid = _grid(family, factor)
            lifted_grid = _grid(family, lifted)

            def walk():
                for m, n in family.all_pairs:
                    weak_lifted = lifted_grid[m][n] != STATUS_NOT_WEAKLY
                    closed_factor = factor_grid[m][n] == STATUS_CLOSED
                    closed_lifted = lifted_grid[m][n] == STATUS_CLOSED
                    if not tally.agree(weak_lifted, closed_factor, closed_lifted):
                        return tally.fail(
                            **_instance(ring, lifted, m, n),
                            detail=(
                                f"equivalence broken: weakly(IxR)={weak_lifted}, "
                                f"closed(I)={closed_factor}, closed(IxR)={closed_lifted}"
                            ),
                        )
                return None

            failure = tally.once(tally.identity(factor_grid, lifted_grid), walk)
            if failure is not None:
                return failure
    return tally.done()


def _factor_view(family, ideal):
    # what `_add2_condition` asks of one factor ideal, read once: its
    # `_grid` and the m of the grid for which some 0 != x**m lies in it
    size = family.max_exponent
    lands = frozenset(m for m in range(1, size + 1) if closure._nonzero_power_lands_in(ideal, m))
    return _grid(family, ideal), lands


def _add2_condition(side, other, m, n) -> bool:
    side_grid, side_lands = side
    other_grid, other_lands = other
    if side_grid[m][n] != STATUS_WEAKLY_ONLY:
        return False
    if m in other_lands:
        return False
    if m in side_lands:
        return other_grid[m][n] == STATUS_CLOSED
    return True


def _check_prod_weak(family):
    tally = _Tally("T-PROD-WEAK")
    for ring, ideal, grid in _ideal_grids(family, kind=ProductRing):
        left, right = split_product_ideal(ring, ideal)
        views = None
        if left.is_proper and right.is_proper:
            views = (_factor_view(family, left), _factor_view(family, right))
        for m, n in family.mn_pairs:
            direct = grid[m][n] == STATUS_WEAKLY_ONLY
            condition = views is not None and (
                _add2_condition(views[0], views[1], m, n)
                or _add2_condition(views[1], views[0], m, n)
            )
            if not tally.agree(direct, condition):
                return tally.fail(
                    **_instance(ring, ideal, m, n),
                    detail=f"direct weakly-only {direct} but factor conditions {condition}",
                )
    return tally.done()


# --- trivial extensions (T-IDEALIZATION) ---------------------------------------


def extend_ideal_to_idealization(ring: IdealizationRing, base_ideal: Ideal) -> Ideal:
    """The ideal I (+) M of Z_n (+) Z_d, for I an ideal of Z_n."""
    gens = tuple((g, 0) for g in base_ideal.generators)
    if ring.d > 1:
        gens += ((0, 1),)
    return ideal_from_generators(ring, gens)


def _module_annihilated(ring: IdealizationRing, a: int, m: int) -> bool:
    # m * (a**(m-1) * x) == 0 in Z_d for every x: x = 1 implies the rest
    return m * pow(a, m - 1, ring.d) % ring.d == 0


def _check_idealization(family):
    tally = _Tally("T-IDEALIZATION")
    for ring in _family_rings(family, kind=IdealizationRing):
        base = build_ring(CyclicZ(ring.n), family.max_order)
        for base_ideal in _proper_ideals(base):
            extended = extend_ideal_to_idealization(ring, base_ideal)
            grid = _grid(family, extended)
            base_grid = _grid(family, base_ideal)
            for m, n in family.mn_pairs:
                direct = grid[m][n] == STATUS_WEAKLY_ONLY
                condition = base_grid[m][n] == STATUS_WEAKLY_ONLY and all(
                    _module_annihilated(ring, a, m)
                    for a in unbreakable_zero_elements(base_ideal, m, n)
                )
                if not tally.agree(direct, condition):
                    return tally.fail(
                        **_instance(ring, extended, m, n),
                        base_ideal=[_serialize(e) for e in base_ideal.members],
                        detail=f"direct weakly-only {direct} but module criterion {condition}",
                    )
    return tally.done()


# --- principal ideals of Z_(p**c) (T-PRINCIPAL) --------------------------------


def _check_principal(family):
    tally = _Tally("T-PRINCIPAL")
    for p, c in family.principal_cases:
        modulus = p ** c
        ring = build_ring(CyclicZ(modulus), family.max_order)
        for k in range(1, c):
            pairs = [(m, n) for m, n in family.mn_pairs if m < k]
            if not pairs:
                continue
            ideal = ideal_from_generators(ring, (pow(p, k),))
            grid = _grid(family, ideal)
            for m, n in pairs:
                q, r = divmod(k, m)
                condition = r != 0 and k + 1 <= c <= m * (q + 1) and n * (q + 1) < k
                direct = grid[m][n] == STATUS_WEAKLY_ONLY
                if not tally.agree(direct, condition):
                    return tally.fail(
                        **_instance(ring, ideal, m, n),
                        p=p,
                        c=c,
                        k=k,
                        detail=f"arithmetic conditions {condition} but direct status {direct}",
                    )
    return tally.done()


# --- nilradical-bounded ideals (T-NILIDEAL) -------------------------------------


def _nil_vanishes(ring, exponents) -> dict:
    """{e: w**e == 0 for every nilpotent w}, decided once per exponent."""
    nil, zero = ring.nilpotents, ring.zero
    return {e: all(ring.power(w, e) == zero for w in nil) for e in set(exponents)}


def _check_nilideal(family):
    tally = _Tally("T-NILIDEAL")
    for ring in _family_rings(family):
        nil = ring.nilpotents  # an ideal: I lies in it iff its generators do
        inside = (i for i in _proper_ideals(ring) if nil.issuperset(i.generators))
        grids = _distinct(_grid(family, i) for i in inside)
        vanishes = _nil_vanishes(ring, (m for m, _ in family.mn_pairs))
        for m, n in family.mn_pairs:
            all_weak = all(g[m][n] != STATUS_NOT_WEAKLY for g in grids)
            vanishing = vanishes[m]
            if not tally.agree(all_weak, vanishing):
                return tally.fail(
                    **_instance(ring, m=m, n=n),
                    detail=f"nil-contained ideals all weakly closed: {all_weak}, "
                    f"w**m == 0 on the nilradical: {vanishing}",
                )
    return tally.done()


# --- element-level regularity facts (T-VNRFACTS-1..7, T-BK) ---------------------


def _grid_rings(family):
    return _family_rings(family, order_cap=family.grid_order_cap)


def _element_rows(family):
    """(ring, x, `vnr_rows`) for every element x of the grid rings; the
    rows run to grid_max + 1 for T-VNRFACTS-7's (m + 1, n) step.  The
    checkers walk each element's cells through `_Tally.once`, so one
    walk serves every element with the same table and shape."""
    for ring in _grid_rings(family):
        for x in ring.elements:
            yield ring, x, vnr_rows(ring, x, family.grid_max + 1)


def _cells(size):
    """Every (m, n) with 1 <= m, n <= size, in (m, n) order."""
    return product(range(1, size + 1), repeat=2)


def _unsolvable_cells(solvable, size) -> list:
    """The cells (m', n') where `solvable` fails, in (m, n) order: the first
    one inside a rectangle (m' <= m, n' >= n) or strip (n' >= n) is the
    first one a row-by-row scan of that region meets."""
    return [cell for cell in _cells(size) if not solvable(*cell)]


def _grid_shape_check(theorem_id, family, shape, expected, detail):
    """T-VNRFACTS-1, -3, -4 and -6: `shape(ring, x)` is None when x is
    outside the quantified set (vacuous), or the extra record fields of x,
    a dict; ``expected(m, n, **fields)`` is the required answer, None
    where any answer goes.  The walk reads the table and the fields."""
    tally = _Tally(theorem_id)
    for ring, x, rows in _element_rows(family):
        fields = shape(ring, x)
        if fields is None:
            tally.vacuous()
            continue

        def walk():
            for m, n in _cells(family.grid_max):
                want = expected(m, n, **fields)
                if want is not None and rows[m][n] != want:
                    record = _instance(ring, m=m, n=n, element=x, **fields)
                    return tally.fail(**record, detail=detail)
            tally.substantive()
            return None

        failure = tally.once((rows, tuple(fields.items())), walk)
        if failure is not None:
            return failure
    return tally.done()


def _check_vnrfacts_1(family):
    return _grid_shape_check(
        "T-VNRFACTS-1",
        family,
        lambda ring, x: {},
        lambda m, n: True if m <= n else None,
        "element not (m,n)-vnr despite m <= n",
    )


def _propagation_walk(tally, ring, x, rows, size):
    """T-VNRFACTS-2 on one element: every solvable cell's rectangle
    (m' <= m, n' >= n) is solvable."""
    unsolvable = _unsolvable_cells(lambda m, n: rows[m][n], size)
    for m, n in _cells(size):
        if not rows[m][n]:
            tally.vacuous()
            continue
        weaker = next((c for c in unsolvable if c[0] <= m and c[1] >= n), None)
        if weaker is not None:
            return tally.fail(
                **_instance(ring, m=m, n=n),
                element=_serialize(x),
                weaker_pair=weaker,
                detail="vnr does not propagate to smaller m / larger n",
            )
        tally.substantive()
    return None


def _check_vnrfacts_2(family):
    tally = _Tally("T-VNRFACTS-2")
    for ring, x, rows in _element_rows(family):
        walk = partial(_propagation_walk, tally, ring, x, rows, family.grid_max)
        failure = tally.once(rows, walk)
        if failure is not None:
            return failure
    return tally.done()


def _check_vnrfacts_3(family):
    def shape(ring, x):
        return {} if x == ring.zero or x in ring.units else None

    return _grid_shape_check(
        "T-VNRFACTS-3",
        family,
        shape,
        lambda m, n: True,
        "unit or zero element fails to be (m,n)-vnr",
    )


def _check_vnrfacts_4(family):
    # the quantified set (neither zero, a zero-divisor, nor a unit) is
    # empty in finite rings; the biconditional is still checked honestly
    def shape(ring, x):
        if x == ring.zero or x in ring.zero_divisors or x in ring.units:
            return None
        return {}

    return _grid_shape_check(
        "T-VNRFACTS-4",
        family,
        shape,
        lambda m, n: m <= n,
        "regular element outside Z(R) and U(R) breaks the m <= n rule",
    )


def _check_vnrfacts_5(family):
    tally = _Tally("T-VNRFACTS-5")
    size = family.grid_max
    for ring, x, rows in _element_rows(family):
        zero_powers = tuple(ring.power(x, n) == ring.zero for n in range(1, size + 1))

        def walk():
            for n, zero_power in enumerate(zero_powers, 1):
                if not zero_power:
                    tally.vacuous()
                    continue
                for m in range(1, size + 1):
                    if not rows[m][n]:
                        return tally.fail(
                            **_instance(ring, m=m, n=n),
                            element=_serialize(x),
                            detail="x**n == 0 but x is not (m,n)-vnr",
                        )
                tally.substantive()
            return None

        failure = tally.once((rows, zero_powers), walk)
        if failure is not None:
            return failure
    return tally.done()


def _check_vnrfacts_6(family):
    def shape(ring, x):
        k = ring.nilpotency_index(x)
        if k is None or k < 2:
            return None
        return {"nilpotency_index": k}

    return _grid_shape_check(
        "T-VNRFACTS-6",
        family,
        shape,
        lambda m, n, nilpotency_index: m <= n or n >= nilpotency_index,
        "vnr pattern disagrees with the nilpotency index shape",
    )


def _step_walk(tally, ring, x, rows, size):
    """T-VNRFACTS-7 on one element: a solvable cell with m > n steps to
    (m + 1, n), and its strip (n' >= n) is solvable."""
    unsolvable = _unsolvable_cells(lambda m, n: rows[m][n], size)
    for m, n in _cells(size):
        if not (rows[m][n] and m > n):
            tally.vacuous()
            continue
        if not rows[m + 1][n]:
            return tally.fail(
                **_instance(ring, m=m, n=n),
                element=_serialize(x),
                detail="(m,n)-vnr with m > n but not (m+1,n)-vnr",
            )
        weaker = next((c for c in unsolvable if c[1] >= n), None)
        if weaker is not None:
            return tally.fail(
                **_instance(ring, m=m, n=n),
                element=_serialize(x),
                weaker_pair=weaker,
                detail="(m,n)-vnr with m > n but not (m',n')-vnr for n' >= n",
            )
        tally.substantive()
    return None


def _check_vnrfacts_7(family):
    tally = _Tally("T-VNRFACTS-7")
    size = family.grid_max
    for ring in _grid_rings(family):
        for x in ring.elements:
            rows = vnr_rows(ring, x, size + 1)  # the table `_element_rows` shares
            failure = tally.once(rows, partial(_step_walk, tally, ring, x, rows, size))
            if failure is not None:
                return failure
        # ring-level rider: von Neumann regular iff (m,n)-regular for all
        # pairs; answers repeat past L = power_bound >= 2, so cells up to
        # max(size, L) decide every pair, (2, 1) among them
        regular_21 = is_mn_regular_ring(ring, 2, 1)
        cells = max(size, ring.power_bound)
        regular_all = not _unsolvable_cells(partial(is_mn_regular_ring, ring), cells)
        if regular_21 != regular_all:
            return tally.fail(
                **_instance(ring),
                detail=f"(2,1)-regular is {regular_21} but all-pairs regular is {regular_all}",
            )
        tally.substantive()
    return tally.done()


def _check_bk(family):
    tally = _Tally("T-BK")
    for ring, x, rows in _element_rows(family):
        profile = vnr_profile_element(ring, x)
        minimal = profile.k == 1 or not _is_vnr(ring, x, profile.k, profile.k - 1)

        def walk():
            for m, n in _cells(family.grid_max):
                if rows[m][n] != profile.contains(m, n):
                    return tally.fail(
                        **_instance(ring, m=m, n=n),
                        element=_serialize(x),
                        k=profile.k,
                        detail="grid does not match the B_k shape",
                    )
            if not minimal:
                return tally.fail(
                    **_instance(ring),
                    element=_serialize(x),
                    k=profile.k,
                    detail="profile k is not minimal",
                )
            tally.substantive()
            return None

        failure = tally.once((rows, profile, minimal), walk)
        if failure is not None:
            return failure
    return tally.done()


# --- ring-level regularity (T-STRONG, T-ALLWEAK, T-ALLCLOSED, T-DIM0,
#     T-REDUCED, T-SPR, T-ZPK, T-PRODMAX) ---------------------------------------


def _check_strong(family):
    tally = _Tally("T-STRONG")
    for ring in _family_rings(family):
        unsolvable = _unsolvable_cells(partial(is_mn_regular_ring, ring), family.grid_max)
        strongly = is_strongly_pi_regular(ring)[0]
        for m, n in family.mn_pairs:
            if not is_mn_regular_ring(ring, m, n):
                tally.vacuous()
                continue
            weaker = next((c for c in unsolvable if c[1] >= n), None)
            if weaker is not None:
                return tally.fail(
                    **_instance(ring, m=m, n=n),
                    weaker_pair=weaker,
                    detail="(m,n)-regular ring not (m',n')-regular for n' >= n",
                )
            if not strongly:
                return tally.fail(
                    **_instance(ring, m=m, n=n),
                    detail="(m,n)-regular ring is not strongly pi-regular",
                )
            if krull_dim(ring) != 0:
                return tally.fail(
                    **_instance(ring, m=m, n=n),
                    detail="(m,n)-regular ring has nonzero dimension",
                )
            tally.substantive()
    return tally.done()


def _check_allweak(family):
    tally = _Tally("T-ALLWEAK")
    for ring in _family_rings(family):
        grids = _distinct(_status_grids(ring, family))
        for m, n in family.mn_pairs:
            characterization = _weakly_closed_characterization(ring, m, n)
            direct = all(g[m][n] != STATUS_NOT_WEAKLY for g in grids)
            if not tally.agree(direct, characterization):
                return tally.fail(
                    **_instance(ring, m=m, n=n),
                    detail=f"all ideals weakly closed: {direct}, "
                    f"element characterization: {characterization}",
                )
    return tally.done()


def _check_allclosed(family):
    tally = _Tally("T-ALLCLOSED")
    for ring in _family_rings(family):
        grids = _distinct(_status_grids(ring, family))
        for m, n in family.all_pairs:
            regular = is_mn_regular_ring(ring, m, n)
            direct = all(g[m][n] == STATUS_CLOSED for g in grids)
            if not tally.agree(direct, regular):
                return tally.fail(
                    **_instance(ring, m=m, n=n),
                    detail=f"all ideals closed: {direct}, ring regular: {regular}",
                )
    return tally.done()


def _check_dim0(family):
    tally = _Tally("T-DIM0")
    for ring in _family_rings(family):
        grids = _distinct(_status_grids(ring, family))
        dim = krull_dim(ring)
        vanishes = _nil_vanishes(ring, (n for _, n in family.mn_pairs))
        for m, n in family.mn_pairs:
            all_closed = all(g[m][n] == STATUS_CLOSED for g in grids)
            regular = is_mn_regular_ring(ring, m, n)
            structural = dim == 0 and vanishes[n]
            if not tally.agree(all_closed, regular, structural):
                return tally.fail(
                    **_instance(ring, m=m, n=n),
                    detail=(
                        f"three-way equivalence broken: all ideals closed {all_closed}, "
                        f"regular {regular}, dim-0-with-vanishing-nil {structural}"
                    ),
                )
    return tally.done()


def _check_reduced(family):
    tally = _Tally("T-REDUCED")
    for ring in _family_rings(family):
        if ring.nilpotents != frozenset({ring.zero}):
            tally.vacuous()
            continue
        grids = _distinct(_status_grids(ring, family))
        for m, n in family.all_pairs:
            all_weak = all(g[m][n] != STATUS_NOT_WEAKLY for g in grids)
            all_closed = all(g[m][n] == STATUS_CLOSED for g in grids)
            regular = is_mn_regular_ring(ring, m, n)
            if not tally.agree(all_weak, all_closed, regular):
                return tally.fail(
                    **_instance(ring, m=m, n=n),
                    detail=(
                        f"reduced-ring equivalence broken: weakly {all_weak}, "
                        f"closed {all_closed}, regular {regular}"
                    ),
                )
    return tally.done()


def _unbounded_nilpotency_index(ring, x):
    """Least k with x**k == 0, or None once the powers of x repeat first;
    unlike `FiniteRing.nilpotency_index`, k is not capped at L."""
    seen = set()
    y, k = x, 1
    while y != ring.zero:
        if y in seen:
            return None
        seen.add(y)
        y, k = ring.mul(y, x), k + 1
    return k


def _check_spr(family):
    tally = _Tally("T-SPR")
    for ring in _family_rings(family, order_cap=family.spr_order_cap):
        # x**t R is one ideal from t = L = `power_bound` on, so the sweeps
        # up to L decide the unbounded quantifiers
        bound = ring.power_bound
        strongly, smallest = is_strongly_pi_regular(ring)
        some_pair = any(
            is_mn_regular_ring(ring, m, n)
            for n in range(1, bound + 1)
            for m in (n + 1, 2 * n)
        )
        uniform_n = any(
            all(is_mn_regular_ring(ring, m, n) for m in range(1, bound + 1))
            for n in range(1, bound + 1)
        )
        max_nil_index = max(_unbounded_nilpotency_index(ring, x) or 0 for x in ring.elements)
        structural = krull_dim(ring) == 0 and max_nil_index <= bound
        if not (strongly == some_pair == uniform_n == structural):
            return tally.fail(
                **_instance(ring),
                detail=(
                    f"strongly pi-regular equivalence broken: direct {strongly}, "
                    f"some-pair {some_pair}, uniform-n {uniform_n}, structural {structural}"
                ),
            )
        if strongly and smallest != vnr_profile_ring(ring).k:
            return tally.fail(
                **_instance(ring),
                detail=f"smallest strongly-pi exponent {smallest} differs from profile k",
            )
        tally.substantive()
    return tally.done()


def _check_zpk(family):
    tally = _Tally("T-ZPK")
    for ring in _family_rings(family, kind=CyclicRing):
        factors = _factorize(ring.n)
        if len(factors) != 1:
            continue
        _, k = factors[0]
        profile = vnr_profile_ring(ring)
        if profile.k != k:
            return tally.fail(
                **_instance(ring),
                expected_k=k,
                got_k=profile.k,
                detail="Z_(p**k) does not have profile B_k",
            )
        tally.substantive()
    return tally.done()


def _check_prodmax(family):
    tally = _Tally("T-PRODMAX")
    for ring in _family_rings(family, kind=ProductRing):
        expected = max(vnr_profile_ring(ring.left).k, vnr_profile_ring(ring.right).k)
        profile = vnr_profile_ring(ring)
        if profile.k != expected:
            return tally.fail(
                **_instance(ring),
                expected_k=expected,
                got_k=profile.k,
                detail="product profile is not the factor maximum",
            )
        tally.substantive()
    return tally.done()


# --- catalog -------------------------------------------------------------------

CATALOG: dict = {
    "T-BASIC-1": ("weakly n-absorbing ideals are weakly (n+1,n)-closed", _check_basic_1),
    "T-BASIC-2": ("weak (m,n)-closedness is monotone in n", _check_basic_2),
    "T-BASIC-3": ("weakly n-absorbing ideals are weakly (m,n)-closed for every m", _check_basic_3),
    "T-BASIC-4": ("intersections of weakly (m,n)-closed ideals stay weakly closed", _check_basic_4),
    "T-SHIFT": ("(a + i)**m == 0 for unbreakable-zero a and i in I", _check_shift),
    "T-NIL": ("weakly-only ideals live inside the nilradical", _check_nil),
    "T-NIL-CHAR": ("with prime characteristic m, i**m == 0 on weakly-only ideals", _check_nil_char),
    "T-QUOT": ("weak closedness passes to images in quotient rings", _check_quot),
    "T-PROD-CLOSED": ("closed ideals of products are exactly products of closed factors", _check_prod_closed),
    "T-PROD-FACTOR": ("I x R weakly closed iff I closed iff I x R closed", _check_prod_factor),
    "T-PROD-WEAK": ("weakly-only ideals of products match the factor conditions", _check_prod_weak),
    "T-IDEALIZATION": ("weakly-only ideals I(+)M match the module annihilation criterion", _check_idealization),
    "T-PRINCIPAL": ("weakly-only principal quotient ideals match the exponent arithmetic", _check_principal),
    "T-NILIDEAL": ("nil-contained ideals all weakly closed iff w**m == 0 on the nilradical", _check_nilideal),
    "T-VNRFACTS-1": ("every element is (m,n)-vnr when m <= n", _check_vnrfacts_1),
    "T-VNRFACTS-2": ("vnr propagates to smaller m and larger n", _check_vnrfacts_2),
    "T-VNRFACTS-3": ("units and zero are (m,n)-vnr for every pair", _check_vnrfacts_3),
    "T-VNRFACTS-4": ("outside Z(R) and U(R), vnr happens only for m <= n", _check_vnrfacts_4),
    "T-VNRFACTS-5": ("x**n == 0 makes x (m,n)-vnr for every m", _check_vnrfacts_5),
    "T-VNRFACTS-6": ("nilpotents of index k have the (m <= n or n >= k) pattern", _check_vnrfacts_6),
    "T-VNRFACTS-7": ("(m,n)-vnr with m > n extends to (m+1,n) and all n' >= n", _check_vnrfacts_7),
    "T-STRONG": ("(m,n)-regular rings are (m',n')-regular for n' >= n and strongly pi-regular", _check_strong),
    "T-ALLWEAK": ("all ideals weakly closed iff non-nilpotents vnr and w**m == 0 on nil", _check_allweak),
    "T-ALLCLOSED": ("all ideals closed iff the ring is (m,n)-regular", _check_allclosed),
    "T-DIM0": ("all-closed, regular, and dim-0-with-w**n==0 coincide", _check_dim0),
    "T-REDUCED": ("on reduced rings weakly-all, closed-all, and regular coincide", _check_reduced),
    "T-SPR": ("the four strongly-pi-regular characterizations coincide", _check_spr),
    "T-BK": ("element vnr grids have the B_k shape with minimal k", _check_bk),
    "T-ZPK": ("Z_(p**k) has ring profile B_k", _check_zpk),
    "T-PRODMAX": ("product profiles are the factor maximum", _check_prodmax),
}

THEOREM_IDS = tuple(CATALOG)


def verify_theorem(theorem_id: str, family: InstanceFamily | None = None) -> TheoremVerdict:
    if theorem_id not in CATALOG:
        raise KeyError(f"unknown theorem id {theorem_id!r}")
    if family is None:
        family = default_family()
    _, checker = CATALOG[theorem_id]
    return checker(family)


def verify_many(
    theorem_ids, family: InstanceFamily | None = None, workers: int = 1
) -> list:
    """Run several catalog entries; `workers` > 1 fans theorems out to a
    process pool (results keep the requested order either way)."""
    ids = list(theorem_ids)
    for theorem_id in ids:
        if theorem_id not in CATALOG:
            raise KeyError(f"unknown theorem id {theorem_id!r}")
    if family is None:
        family = default_family()
    if workers <= 1 or len(ids) <= 1:
        return [verify_theorem(theorem_id, family) for theorem_id in ids]
    # imported here: the pool machinery (multiprocessing, pickle, socket)
    # is half the import time of the CLI, and only this branch needs it
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(verify_theorem, ids, repeat(family)))


def replay_counterexample(verdict: TheoremVerdict, family: InstanceFamily | None = None) -> bool:
    """Re-run a failing verdict's checker on just the recorded instance;
    True when the failure reproduces."""
    if verdict.status != FAIL or not verdict.counterexample:
        raise ValueError("only failing verdicts with a counterexample can be replayed")
    if family is None:
        family = default_family()
    record = verdict.counterexample
    narrow = family
    if "ring" in record:
        narrow = narrow.replace(ring_specs=(parse_ring_spec(record["ring"]),))
    if "p" in record and "c" in record:
        narrow = narrow.replace(principal_cases=((record["p"], record["c"]),))
    if "m" in record and "n" in record:
        m, n = record["m"], record["n"]
        if n < m:
            narrow = narrow.replace(mn_pairs=((m, n),), spot_pairs=())
        else:
            narrow = narrow.replace(mn_pairs=(), spot_pairs=((m, n),))
    replayed = verify_theorem(verdict.theorem_id, narrow)
    return replayed.status == FAIL


# --- counterexample search for non-theorems --------------------------------------

def _search_weak_not_closed(family):
    return [
        closure.classify(ideal, m, n).to_record()
        for _, ideal, grid in _ideal_grids(family)
        for m, n in family.mn_pairs
        if grid[m][n] == STATUS_WEAKLY_ONLY
    ]


def _search_not_monotone(family):
    witnesses = []
    for ring, ideal, grid in _ideal_grids(family):
        for n in family.n_values:
            weak_at = {m: grid[m][n] != STATUS_NOT_WEAKLY for m in range(1, family.grid_max + 1)}
            for m, ok in weak_at.items():
                if not ok:
                    continue
                for m_smaller in range(n + 1, m):
                    if not weak_at[m_smaller]:
                        witnesses.append(_instance(ring, ideal, m, n, m_smaller=m_smaller))
    return witnesses


def _search_not_weakly_radical(family):
    witnesses = []
    for ring, ideal, grid in _ideal_grids(family):
        radical = None  # the answer depends on the ideal only: ask once
        for m, n in family.mn_pairs:
            if grid[m][n] == STATUS_NOT_WEAKLY:
                continue
            if radical is None:
                radical = closure.is_weakly_radical(ideal)
            ok, witness = radical
            if not ok:
                record = _instance(ring, ideal, m, n)
                record["radical_witness"] = [_serialize(witness[0]), witness[1]]
                witnesses.append(record)
    return witnesses


_SEARCHES = {
    "weak-not-closed-exists": _search_weak_not_closed,
    "weak-not-monotone-in-m": _search_not_monotone,
    "weakly-closed-not-weakly-radical": _search_not_weakly_radical,
}

SEARCH_PREDICATES = tuple(_SEARCHES)


def search_counterexamples(predicate_id: str, family: InstanceFamily | None = None) -> list:
    """Witnesses that separate the weak notions from the plain ones; all
    witnesses in the family are returned, in canonical order."""
    if predicate_id not in _SEARCHES:
        raise KeyError(f"unknown predicate {predicate_id!r}")
    if family is None:
        family = default_family()
    return _SEARCHES[predicate_id](family)
