"""Theorem verifier: catalog behavior, determinism, counterexample replay."""

import gc
import json
import tracemalloc
import weakref
from math import inf
from pathlib import Path

import pytest

from closure_lab import (
    CATALOG,
    SEARCH_PREDICATES,
    THEOREM_IDS,
    CyclicZ,
    TheoremVerdict,
    build_ring,
    classify,
    clear_caches,
    enumerate_ideals,
    ideal_from_generators,
    image_ideal,
    load_family,
    parse_ring_spec,
    quotient_ring,
    replay_counterexample,
    search_counterexamples,
    verify_many,
    verify_theorem,
)
from closure_lab import closure, regularity, rings, theorems
from closure_lab.closure import _nonzero_power_lands_in
from closure_lab.families import make_family, tiny_family
from closure_lab.ideals import Ideal
from closure_lab.rings import (
    CyclicRing,
    FiniteRing,
    IdealizationRing,
    ProductRing,
    QuotientRing,
    per_ring,
)
from closure_lab.theorems import (
    FAIL,
    PASS,
    _Tally,
    _family_rings,
    _proper_ideals,
)

from _oracles import (
    brute_divides,
    brute_first_absorbing_failure,
    brute_is_mn_closed,
    brute_is_weakly_mn_closed,
    brute_krull_dim,
    brute_least_associates,
    brute_multiples,
    brute_power,
    brute_power_thresholds,
    brute_quotient,
    brute_shift_triples,
    brute_unbreakable,
    brute_vnr_witness,
)


PINNED_FAMILY = Path(__file__).resolve().parent.parent / "perfbench" / "family.conf"


@pytest.fixture(scope="module")
def family():
    return tiny_family()


def test_catalog_is_complete():
    expected = {
        "T-BASIC-1", "T-BASIC-2", "T-BASIC-3", "T-BASIC-4",
        "T-SHIFT", "T-NIL", "T-NIL-CHAR", "T-QUOT",
        "T-PROD-CLOSED", "T-PROD-FACTOR", "T-PROD-WEAK",
        "T-IDEALIZATION", "T-PRINCIPAL", "T-NILIDEAL",
        "T-VNRFACTS-1", "T-VNRFACTS-2", "T-VNRFACTS-3", "T-VNRFACTS-4",
        "T-VNRFACTS-5", "T-VNRFACTS-6", "T-VNRFACTS-7",
        "T-STRONG", "T-ALLWEAK", "T-ALLCLOSED", "T-DIM0", "T-REDUCED",
        "T-SPR", "T-BK", "T-ZPK", "T-PRODMAX",
    }
    assert set(THEOREM_IDS) == expected
    assert len(THEOREM_IDS) == 30


def test_unknown_theorem_id():
    with pytest.raises(KeyError):
        verify_theorem("T-NOPE", tiny_family())
    with pytest.raises(KeyError):
        verify_many(["T-NIL", "T-NOPE"], tiny_family())


def test_every_theorem_passes_on_tiny_family(family):
    for theorem_id in THEOREM_IDS:
        verdict = verify_theorem(theorem_id, family)
        assert verdict.status == PASS, (theorem_id, verdict.counterexample)
        assert verdict.counterexample is None
        assert verdict.instances_checked > 0


def test_headline_theorems_are_substantive(family):
    for theorem_id in ("T-NIL", "T-PRINCIPAL", "T-PROD-WEAK", "T-IDEALIZATION",
                       "T-ALLWEAK", "T-BK"):
        verdict = verify_theorem(theorem_id, family)
        assert verdict.substantive_count > 0, theorem_id


def test_vacuous_counts_are_visible(family):
    verdict = verify_theorem("T-VNRFACTS-4", family)
    # the hypothesis set is empty on finite rings, so everything is vacuous
    assert verdict.vacuous_count == verdict.instances_checked > 0
    assert verdict.status == PASS


def test_principal_example_instance():
    # Z/2**13, ideal generated by 2**12, pair (5, 3): the exponent
    # arithmetic (r != 0, k+1 <= c <= m(q+1), n(q+1) < k) and the direct
    # classification agree on weakly_only
    family = make_family(
        cyclic_moduli=(), product_moduli=(), idealization_max=1,
        principal_primes=(2,), principal_max_exponent=13, m_max=6,
    )
    verdict = verify_theorem("T-PRINCIPAL", family)
    assert verdict.status == PASS
    assert verdict.substantive_count > 0
    ring = build_ring(parse_ring_spec(f"Z{2 ** 13}"))
    from closure_lab import ideal_from_generators

    ideal = ideal_from_generators(ring, (2 ** 12,))
    assert classify(ideal, 5, 3).status == "weakly_only"
    k, c, m, n = 12, 13, 5, 3
    q, r = divmod(k, m)
    assert r != 0 and k + 1 <= c <= m * (q + 1) and n * (q + 1) < k


def test_verdict_serialization_field_names(family):
    record = verify_theorem("T-NIL", family).to_record()
    assert set(record) == {"theorem_id", "instances_checked", "vacuous_count", "status"}
    failing = TheoremVerdict("T-NIL", 3, 1, FAIL, {"ring": "Z8"})
    assert set(failing.to_record()) == {
        "theorem_id", "instances_checked", "vacuous_count", "status", "counterexample",
    }


def test_budget_skip_never_silently_passes():
    starved = tiny_family(absorbing_budget=1)
    verdict = verify_theorem("T-BASIC-1", starved)
    assert verdict.status == "skipped(budget)"
    assert verdict.instances_checked == 0


def test_a_theorem_that_checked_nothing_does_not_pass():
    assert _Tally("T-X").done().status == "empty"
    skipped = _Tally("T-X")
    skipped.skip()
    assert skipped.done().status == "skipped(budget)"
    vacuous = _Tally("T-X")
    vacuous.vacuous()
    assert vacuous.done().status == PASS
    no_principal = tiny_family(principal_max_exponent=1)
    verdict = verify_theorem("T-PRINCIPAL", no_principal)
    assert (verdict.status, verdict.instances_checked) == ("empty", 0)


@pytest.mark.parametrize("text", ["Z16", "Z4 x Z6", "Z8 (+) Z4", "Z24/(8) x Z4"])
def test_nonzero_power_sweep_matches_every_element(text):
    r = build_ring(parse_ring_spec(text))
    for ideal in enumerate_ideals(r).proper:
        for m in range(1, 5):
            expected = any(
                brute_power(r, x, m) != r.zero and brute_power(r, x, m) in ideal.elements
                for x in r.elements
            )
            assert _nonzero_power_lands_in(ideal, m) == expected, (ideal, m)


@per_ring
def _oracle_grid(ring, key, size):
    # cell by cell from the definitions, as fresh tuples that no two ideals
    # share, so every identity-keyed walk misses
    members = Ideal(ring, key).elements
    rows = [(None,) * (size + 1)]
    for m in range(1, size + 1):
        cells = [None]
        for n in range(1, size + 1):
            if brute_is_mn_closed(ring, members, m, n):
                cells.append(closure.STATUS_CLOSED)
            elif brute_is_weakly_mn_closed(ring, members, m, n):
                cells.append(closure.STATUS_WEAKLY_ONLY)
            else:
                cells.append(closure.STATUS_NOT_WEAKLY)
        rows.append(tuple(cells))
    return tuple(rows)


def test_catalog_on_the_oracles_matches_the_fast_path(monkeypatch):
    _catalog_on_the_oracles(monkeypatch, tiny_family())


def test_catalog_on_the_oracles_matches_the_fast_path_on_the_mid_family(monkeypatch):
    # every cyclic ring up to Z32, and products of Z2, Z3, Z4 and Z8
    family = tiny_family(cyclic_moduli=tuple(range(2, 33)), product_moduli=(2, 3, 4, 8), m_max=5)
    _catalog_on_the_oracles(monkeypatch, family)


class _OracleChains:
    # `closure.PowerChains` from `brute_power`: x, x**2, ... up to the first
    # repeated power or L, and the first t <= L with x**t == 0 (0 for none)

    def __init__(self, ring):
        bound = ring.power_bound
        self.chains = {}
        nus = []
        for x in ring.representatives:
            powers = [brute_power(ring, x, t) for t in range(1, bound + 1)]
            k = next((t for t in range(1, bound) if powers[t] == powers[t - 1]), bound)
            self.chains[x] = tuple(powers[:k])
            nus.append(next((t for t, y in enumerate(powers, 1) if y == ring.zero), 0))
        self.nus = bytes(nus)


@per_ring
def _oracle_thresholds(ring, key):
    # the tau bytes from `brute_power_thresholds`, one per class-table entry
    found = brute_power_thresholds(ring, Ideal(ring, key).elements, ring.representatives)
    return bytes(t or 0 for t, _ in found.values())


@per_ring
def _oracle_absorbing_answer(ring, key, n, weak):
    # a full multiset scan for every n, with no shortcut from n - 1
    return brute_first_absorbing_failure(ring, Ideal(ring, key).elements, n, weak)


def _oracle_shift_triples(ideal):
    # T-SHIFT's triples from brute powers and brute cosets
    return brute_shift_triples(ideal.ring, ideal.elements)


def _quotient_image_grids(ideals, size):
    # the grid of each I/J read in R/J itself: the quotient built, the
    # image ideal keyed, and its grid asked for (cell by cell, once
    # `_grid_of` is swapped); None unless the members of J are members of I
    grids = []
    for modulus in ideals:
        quotient = quotient_ring(modulus.ring, modulus)
        grids.append([
            closure.status_grid(image_ideal(quotient, ideal), size)
            if modulus.elements <= ideal.elements else None
            for ideal in ideals
        ])
    return grids


@per_ring
def _oracle_entry_rows(ring, x, size):
    # the vnr table cell by cell: x**m r == x**n for some r in the ring
    rows = [(None,) * (size + 1)]
    for m in range(1, size + 1):
        cells = (brute_vnr_witness(ring, x, m, n) is not None for n in range(1, size + 1))
        rows.append((None, *cells))
    return tuple(rows)


def _catalog_on_the_oracles(monkeypatch, family):
    # every record of the catalog, once as shipped and once with the
    # shortcuts swapped for the definitions: grids cell by cell, n-absorbing
    # answers by a full multiset scan, divisibility by a scan of the ring,
    # least coset members (a quotient's elements and arithmetic, and every
    # member list) by a scan of the ring, every `once` walk run again, each
    # class table the least members of its associate classes, each
    # element's class entry the least element generating the same ideal,
    # power chains and tau bytes from brute powers, unbreakable zeros, vnr
    # tables cell by cell by witness search, the Krull dimension from
    # brute primes over the brute lattice, T-QUOT's image grids in the
    # quotient ring itself, and T-SHIFT's triples from brute cosets
    fast = [json.dumps(v.to_record()) for v in verify_many(THEOREM_IDS, family)]
    least = {}
    entries = {}
    cosets = {}
    contains = rings._contains

    def representatives(ring):
        if ring not in least:
            least[ring] = tuple(sorted(brute_least_associates(ring)))
        return least[ring]

    def class_entry(ring, x):
        if ring not in entries:
            generated = {y: brute_multiples(ring, y) for y in ring.elements}
            first = {}
            for y, ideal in generated.items():
                first.setdefault(ideal, y)
            entries[ring] = {y: first[ideal] for y, ideal in generated.items()}
        return entries[ring][x]

    def coset_least(ring, key):
        if (ring, key) not in cosets:
            members = [x for x in ring.elements if contains(ring, key, x)]
            cosets[ring, key] = brute_quotient(ring, members)
        return cosets[ring, key]

    def minima(ring, key, inside):
        coset = coset_least(ring, key)
        return [x for x in ring.elements if coset[x] == x and contains(ring, inside, x)]

    monkeypatch.setattr(closure, "_grid_of", _oracle_grid)
    monkeypatch.setattr(closure, "_absorbing_answer", _oracle_absorbing_answer)
    monkeypatch.setattr(_Tally, "once", lambda self, key, walk: walk())
    monkeypatch.setattr(closure, "power_chains", per_ring(_OracleChains))
    monkeypatch.setattr(closure, "_threshold_table", _oracle_thresholds)
    monkeypatch.setattr(
        theorems,
        "unbreakable_zero_elements",
        lambda ideal, m, n: brute_unbreakable(ideal.ring, ideal.elements, m, n),
    )
    monkeypatch.setattr(regularity, "_entry_rows", _oracle_entry_rows)
    monkeypatch.setattr(theorems, "krull_dim", brute_krull_dim)
    monkeypatch.setattr(theorems, "image_grids", _quotient_image_grids)
    monkeypatch.setattr(theorems, "shift_triples", _oracle_shift_triples)
    monkeypatch.setattr(rings, "_least", lambda ring, key, x: coset_least(ring, key)[x])
    monkeypatch.setattr(rings, "_minima", minima)
    for kind in (CyclicRing, ProductRing, IdealizationRing, QuotientRing):
        monkeypatch.setattr(kind, "divides", brute_divides)
        monkeypatch.setattr(kind, "representatives", property(representatives))
        monkeypatch.setattr(kind, "class_entry", class_entry)
    clear_caches()  # so that every ring, table and sweep is made afresh
    try:
        oracle = [json.dumps(v.to_record()) for v in verify_many(THEOREM_IDS, family)]
    finally:
        clear_caches()  # drop what the swapped code built
    assert len(oracle) == len(fast) == 30
    assert oracle == fast


def test_workers_produce_identical_verdicts(family):
    ids = ["T-NIL", "T-ZPK", "T-PRODMAX", "T-SHIFT"]
    sequential = verify_many(ids, family, workers=1)
    parallel = verify_many(ids, family, workers=2)
    assert [v.to_record() for v in sequential] == [v.to_record() for v in parallel]


def test_verdicts_are_deterministic(family):
    first = verify_theorem("T-PROD-WEAK", family)
    second = verify_theorem("T-PROD-WEAK", family)
    assert first.to_record() == second.to_record()


# --- fail path: a deliberately false statement must fail with a
#     replayable counterexample -------------------------------------------------


def _false_claim_checker(family):
    # "every weakly (m,n)-closed ideal is (m,n)-closed" is false
    tally = _Tally("T-FALSE-CLAIM")
    for ring in _family_rings(family):
        for ideal in _proper_ideals(ring):
            for m, n in family.mn_pairs:
                report = classify(ideal, m, n)
                if report.status == "not_weakly":
                    tally.vacuous()
                    continue
                if report.status != "closed":
                    return tally.fail(
                        ring=ring.spec_str,
                        ideal_gens=[g for g in ideal.generators],
                        m=m,
                        n=n,
                        detail="weakly closed but not closed",
                    )
                tally.substantive()
    return tally.done()


def test_false_claim_fails_and_replays(family, monkeypatch):
    monkeypatch.setitem(CATALOG, "T-FALSE-CLAIM", ("a false claim", _false_claim_checker))
    verdict = verify_theorem("T-FALSE-CLAIM", family)
    assert verdict.status == FAIL
    assert verdict.counterexample is not None
    assert replay_counterexample(verdict, family)



def _force_zero_shift(monkeypatch, gens):
    # the ideal of `gens` gets a = 0 as one more unbreakable zero, after the
    # real ones, and the triple of `closure.shift_triples` that 0 has as
    # such: index 1, tau 2 and the largest index over the coset 0 + I
    real_zeros, real_triples = theorems.unbreakable_zero_elements, theorems.shift_triples

    def zeros(ideal, m, n):
        witnesses = real_zeros(ideal, m, n)
        if ideal.generators == gens:
            assert witnesses
            return witnesses + (ideal.ring.zero,)
        return witnesses

    def triples(ideal):
        found = real_triples(ideal)
        if ideal.generators == gens:
            index = ideal.ring.nilpotency_indices
            return found | {(1, 2, max(index.get(i, inf) for i in ideal.members))}
        return found

    monkeypatch.setattr(theorems, "unbreakable_zero_elements", zeros)
    monkeypatch.setattr(theorems, "shift_triples", triples)


def _shift_family(spec, cell):
    family = make_family(
        cyclic_moduli=(), product_moduli=(), idealization_max=1, m_max=cell[0],
        principal_primes=(), principal_max_exponent=2,
        extra_specs=(parse_ring_spec(spec),),
    )
    return family.replace(mn_pairs=(cell,), spot_pairs=())


def test_shift_failure_reports_the_first_failing_shift(monkeypatch):
    # On Z8 (+) Z8 the ideal generated by (2, 1) is weakly (3,1)-only and
    # holds (2, 1) with (2, 1)**3 = (0, 4) != 0.  Forcing a = 0 into its
    # unbreakable zeros and its triple into `shift_triples` makes T-SHIFT
    # fail: the real witnesses pass, a + (0, 0) passes, and the first
    # failing shift is i = (2, 1).
    _force_zero_shift(monkeypatch, ((2, 1),))
    verdict = verify_theorem("T-SHIFT", _shift_family("Z8 (+) Z8", (3, 1)))
    assert verdict.status == FAIL
    record = verdict.counterexample
    assert (record["ring"], record["ideal_gens"], record["m"], record["n"]) == (
        "Z8 (+) Z8", [[2, 1]], 3, 1,
    )
    assert (record["element"], record["shifted_by"]) == ([0, 0], [2, 1])


def test_the_first_failing_shift_is_past_a_member_of_index_m(monkeypatch):
    # On Z16 (+) Z16 the ideal ((0, 2), (4, 1)) is weakly (2,1)-only, and
    # its member (0, 2), of index exactly m = 2, comes before (4, 1), of
    # index 3: the first failing shift of the forced a = 0 is (4, 1), and a
    # scan that took index >= m for a failure would stop at (0, 2)
    _force_zero_shift(monkeypatch, ((0, 2), (4, 1)))
    verdict = verify_theorem("T-SHIFT", _shift_family("Z16 (+) Z16", (2, 1)))
    assert verdict.status == FAIL
    record = verdict.counterexample
    assert (record["ring"], record["ideal_gens"], record["m"], record["n"]) == (
        "Z16 (+) Z16", [[0, 2], [4, 1]], 2, 1,
    )
    assert (record["element"], record["shifted_by"]) == ([0, 0], [4, 1])


# Z8 alone, grid_max 6.  Each case makes one more cell unsolvable and pins
# the first failure: the checked count, the failing pair and the weaker pair.
_Z8_FAMILY = make_family(
    cyclic_moduli=(8,), product_moduli=(), idealization_max=1,
    principal_primes=(), principal_max_exponent=2,
)


def _with_cell(rows, cell, value):
    # a copy of a table indexed rows[m][n] with one cell replaced
    m, n = cell
    row = rows[m][:n] + (value,) + rows[m][n + 1 :]
    return rows[:m] + (row,) + rows[m + 1 :]


def _force_unsolvable(monkeypatch, element, cell):
    real = theorems.vnr_rows

    def forced(ring, x, size):
        rows = real(ring, x, size)
        return _with_cell(rows, cell, False) if x == element else rows

    monkeypatch.setattr(theorems, "vnr_rows", forced)


@pytest.mark.parametrize(
    "theorem_id, element, cell, checked, failing, weaker",
    [
        # 2 in Z8 is (m,n)-vnr iff m <= n or n >= 3: (4, 3) is the first
        # solvable cell whose rectangle (or strip) holds (3, 3), with n' == n
        ("T-VNRFACTS-2", 2, (3, 3), 93, (4, 3), (3, 3)),
        ("T-VNRFACTS-7", 2, (3, 3), 93, (4, 3), (3, 3)),
        # 1 is a unit: (2, 1) is the first cell with (2, 3) in reach, with m' == m
        ("T-VNRFACTS-2", 1, (2, 3), 43, (2, 1), (2, 3)),
        ("T-VNRFACTS-7", 1, (2, 3), 43, (2, 1), (2, 3)),
        ("T-VNRFACTS-2", 2, (1, 6), 73, (1, 1), (1, 6)),
        ("T-VNRFACTS-7", 3, (6, 6), 115, (2, 1), (6, 6)),
    ],
)
def test_element_regularity_failures_report_the_first_weaker_pair(
    monkeypatch, theorem_id, element, cell, checked, failing, weaker
):
    _force_unsolvable(monkeypatch, element, cell)
    verdict = verify_theorem(theorem_id, _Z8_FAMILY)
    assert verdict.status == FAIL
    record = verdict.counterexample
    assert verdict.instances_checked == checked
    assert (record["ring"], record["element"]) == ("Z8", element)
    assert ((record["m"], record["n"]), record["weaker_pair"]) == (failing, weaker)


def test_vnrfacts_7_step_reads_the_row_past_the_grid(monkeypatch):
    # the (m + 1, n) step of row grid_max reads row grid_max + 1, where
    # nothing else looks: only (6, 3) steps into (7, 3), after 72 cells of
    # the elements 0 and 1 and 33 of the element 2
    _force_unsolvable(monkeypatch, 2, (7, 3))
    verdict = verify_theorem("T-VNRFACTS-7", _Z8_FAMILY)
    assert verdict.status == FAIL
    record = verdict.counterexample
    assert (record["element"], record["m"], record["n"]) == (2, 6, 3)
    assert "weaker_pair" not in record
    assert verdict.instances_checked == 105


def _force_table(monkeypatch, element, source):
    # element reads the real table of source
    real = theorems.vnr_rows
    monkeypatch.setattr(
        theorems, "vnr_rows", lambda ring, x, size: real(ring, source if x == element else x, size)
    )


# Each element checker remembers a walk by the value of what it reads, so an
# element whose table matches an earlier element's is not walked again.  A
# forced table must still fail at its own element with the counts of a walk
# over every element (the pins are what a checker that walks each element
# reports).  5 is a unit of Z8 like 1, and its forced table differs from 1's
# by one cell; the table of 2 (index 3) forced onto 4 (index 2), or the table
# of 4 forced onto 6 (index 3), is a table already walked under another
# nilpotency index, k or list of zero powers.
@pytest.mark.parametrize(
    "theorem_id, element, force, checked, failing, extra",
    [
        ("T-VNRFACTS-1", 5, (2, 3), 6, (2, 3), {}),
        ("T-VNRFACTS-2", 5, (2, 3), 187, (2, 1), {"weaker_pair": (2, 3)}),
        ("T-VNRFACTS-7", 5, (2, 3), 187, (2, 1), {"weaker_pair": (2, 3)}),
        ("T-BK", 5, (2, 3), 6, (2, 3), {"k": 1}),
        ("T-VNRFACTS-6", 4, 2, 5, (3, 2), {"nilpotency_index": 2}),
        ("T-VNRFACTS-6", 6, 4, 7, (3, 2), {"nilpotency_index": 3}),
        ("T-VNRFACTS-5", 4, 2, 26, (3, 2), {}),
        ("T-BK", 4, 2, 5, (3, 2), {"k": 2}),
    ],
)
def test_remembered_walks_hide_no_failure(
    monkeypatch, theorem_id, element, force, checked, failing, extra
):
    if isinstance(force, tuple):
        _force_unsolvable(monkeypatch, element, force)
    else:
        _force_table(monkeypatch, element, force)
    verdict = verify_theorem(theorem_id, _Z8_FAMILY)
    assert verdict.status == FAIL
    record = verdict.counterexample
    assert verdict.instances_checked == checked
    assert (record["element"], (record["m"], record["n"])) == (element, failing)
    assert {key: record.get(key) for key in ("weaker_pair", "k", "nilpotency_index")} == {
        "weaker_pair": None, "k": None, "nilpotency_index": None, **extra
    }


def test_tally_remembers_passing_walks_only():
    tally = _Tally("T-X")
    walks = []

    def walk(fails):
        walks.append(fails)
        tally.substantive()
        tally.vacuous()
        return tally.fail(detail="forced") if fails else None

    assert tally.once("a", lambda: walk(False)) is None
    assert tally.once("a", lambda: walk(False)) is None
    assert walks == [False]
    assert (tally.checked, tally.vacuous_count) == (4, 2)
    assert tally.once("b", lambda: walk(True)).status == FAIL
    # a failed walk is walked again, never replayed from counts
    assert tally.once("b", lambda: walk(True)).status == FAIL
    assert walks == [False, True, True]


def test_identity_keys_keep_their_objects_alive():
    # an identity key is only sound while no other object can take its id:
    # the tally holds every keyed object until the tally itself is freed
    class Table:
        pass

    tally = _Tally("T-X")
    table = Table()
    alive = weakref.ref(table)
    assert tally.once(tally.identity(table), tally.substantive) is None
    del table
    gc.collect()
    assert alive() is not None
    # the same object again: its walk's count is added, not walked again
    assert tally.once(tally.identity(alive()), lambda: pytest.fail("walked twice")) is None
    assert tally.checked == 2
    # an equal but distinct object is another key, and is walked
    first, second = tuple(range(3)), tuple(range(3))
    assert first == second and first is not second
    walked = []
    for grid in (first, second):
        assert tally.once(tally.identity(grid), lambda: walked.append(grid)) is None
    assert walked == [first, second]
    del tally
    gc.collect()
    assert alive() is None


@pytest.mark.parametrize("cell", [(3, 3), (6, 6)])
def test_strong_failure_reports_the_first_weaker_pair(monkeypatch, cell):
    # Z8 is (m,n)-regular iff m <= n or n >= 3; (4, 3) is its first regular
    # pair with m > n, and both cells lie in its strip n' >= 3
    real = theorems.is_mn_regular_ring
    monkeypatch.setattr(
        theorems,
        "is_mn_regular_ring",
        lambda ring, m, n: (m, n) != cell and real(ring, m, n),
    )
    verdict = verify_theorem("T-STRONG", _Z8_FAMILY)
    assert verdict.status == FAIL
    record = verdict.counterexample
    assert (verdict.instances_checked, verdict.vacuous_count) == (6, 5)
    assert ((record["m"], record["n"]), record["weaker_pair"]) == ((4, 3), cell)


@pytest.mark.parametrize("grid_max", [1, 2, 6])
def test_catalog_passes_at_any_grid_max(grid_max):
    # T-VNRFACTS-7's ring rider compares (2, 1) with every pair; read only
    # up to grid_max = 1 it missed (2, 1) and failed on Z4
    verdicts = verify_many(THEOREM_IDS, tiny_family(grid_max=grid_max))
    assert [v.theorem_id for v in verdicts if v.status != PASS] == []


def test_tables_are_built_once_per_value(monkeypatch):
    # a status grid depends on (ring, element set, size) and a vnr table on
    # (ring, class entry, size), so a verify of every theorem builds one per
    # distinct key asked for; a table longer than L = order.bit_length()
    # pads the L table of its entry, which counts as a key too.  The grid
    # itself is built once per signature: the (tau, nu) pairs with tau > 1,
    # min(size, L) and size
    family = tiny_family()
    grids, signatures, tables = set(), set(), set()
    real_grid, real_rows = closure.status_grid, regularity.vnr_rows

    def grid(ideal, size):
        ring = ideal.ring
        grids.add((ring, ideal.elements, size))
        rows = brute_power_thresholds(ring, ideal.elements, ring.representatives)
        pairs = frozenset((tau, nu) for tau, nu in rows.values() if tau is not None and tau > 1)
        signatures.add((pairs, min(size, ring.order.bit_length()), size))
        return real_grid(ideal, size)

    def rows(ring, x, size):
        if x not in ring.representatives:
            least = brute_multiples(ring, x)
            x = next(y for y in ring.elements if brute_multiples(ring, y) == least)
        tables.add((ring, x, size))
        tables.add((ring, x, min(size, ring.order.bit_length())))
        return real_rows(ring, x, size)

    builds, entry_builds = [], []
    real_build, real_entry = closure._grid_of.__wrapped__, regularity._entry_rows.__wrapped__

    @per_ring
    def build(ring, key, size):
        builds.append(size)
        return real_build(ring, key, size)

    @per_ring
    def entry(ring, x, size):
        # the padding step asks `regularity._entry_rows` again, so it counts too
        entry_builds.append(size)
        return real_entry(ring, x, size)

    for module in (theorems, regularity):
        monkeypatch.setattr(module, "status_grid", grid)
        monkeypatch.setattr(module, "vnr_rows", rows)
    monkeypatch.setattr(closure, "_grid_of", build)
    monkeypatch.setattr(regularity, "_entry_rows", entry)
    clear_caches()
    assert all(v.status == PASS for v in verify_many(THEOREM_IDS, family))
    assert len(builds) == len(grids) > 0
    assert closure._signature_grid.cache_info().misses == len(signatures) < len(grids)
    assert len(entry_builds) == len(tables) > 0


def test_catalog_and_searches_leave_no_cyclic_garbage():
    # `cli.run` stops the cyclic collector, so what a command drops must be
    # freed by reference counting alone
    family = tiny_family()
    clear_caches()  # so that every table is built, and the sweeps run
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert all(v.status == PASS for v in verify_many(THEOREM_IDS, family))
        for predicate in SEARCH_PREDICATES:
            search_counterexamples(predicate, family)
        gc.collect()
        garbage = [type(obj).__name__ for obj in gc.garbage]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert garbage == []


def test_catalog_keeps_no_tables_of_quotients_or_principal_rings(monkeypatch):
    # T-QUOT reads the grid of each image ideal off the tau bytes of the
    # base ring (`closure.image_grids`), so the catalog builds no quotient
    # ring at all.  T-PRINCIPAL's ideals of Z_(p**c) keep their tables on
    # their ring, whose class table holds one entry per divisor of p**c,
    # so the checker alone keeps little
    family = tiny_family()
    quotients = []
    real_init = QuotientRing.__init__

    def init(self, *args):
        quotients.append(self.spec)
        real_init(self, *args)

    monkeypatch.setattr(QuotientRing, "__init__", init)
    clear_caches()
    verdicts = verify_many(THEOREM_IDS, family)
    assert all(v.status == PASS for v in verdicts)
    checked = {v.theorem_id: v.instances_checked for v in verdicts}
    assert checked["T-QUOT"] > 0 and checked["T-PRINCIPAL"] > 0
    assert quotients == []
    family_rings = set(_family_rings(family))
    # every live ring that holds a table
    kept = {r for r in gc.get_objects() if isinstance(r, FiniteRing) and r.tables}
    assert not [r for r in kept if isinstance(r, QuotientRing)]
    assert kept <= family_rings | {
        build_ring(CyclicZ(r.n), family.max_order)
        for r in family_rings
        if isinstance(r, IdealizationRing)
    } | {build_ring(CyclicZ(p ** c), family.max_order) for p, c in family.principal_cases}

    pinned = load_family(str(PINNED_FAMILY))
    clear_caches()
    tracemalloc.start()
    try:
        verdict = verify_theorem("T-PRINCIPAL", pinned)
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        clear_caches()
    assert verdict.status == PASS and held < 192 * 1024


def test_ideals_with_one_element_set_share_one_grid():
    r = build_ring(parse_ring_spec("Z12"))
    first, second = ideal_from_generators(r, (2,)), ideal_from_generators(r, (10, 4))
    assert first.generators != second.generators
    assert first == second and hash(first) == hash(second)
    assert closure.status_grid(first, 4) is closure.status_grid(second, 4)
    assert closure._thresholds(first) is closure._thresholds(second)


def test_replay_rejects_passing_verdicts(family):
    verdict = verify_theorem("T-NIL", family)
    with pytest.raises(ValueError):
        replay_counterexample(verdict, family)


# --- forced failures: every failure branch of every checker -------------------
#
# Each case flips one answer that a checker reads through a name in
# `theorems` (a status grid cell, a ring-level decision, an absorbing
# verdict) and pins the failure the flip causes: the counts up to it, the
# whole counterexample record, and its replay on the narrowed family.  The
# pins are what the checkers reported when these cases were written, so
# they hold the canonical order of every loop as well as each record.

_FORCED_FAMILY = make_family(
    cyclic_moduli=tuple(range(2, 9)), product_moduli=(2, 4), idealization_max=4,
    principal_primes=(2,), principal_max_exponent=5, m_max=3,
)

_CLOSED, _WEAKLY, _NOT_WEAKLY = (
    closure.STATUS_CLOSED, closure.STATUS_WEAKLY_ONLY, closure.STATUS_NOT_WEAKLY,
)


def _key(first):
    # a ring by its spec, an ideal by its ring's spec and its element set
    if isinstance(first, Ideal):
        return first.ring.spec_str, first.elements
    return first.spec_str


def _flip_grid(ring, members, cell, status):
    """A patch: the status grid of the ideal of `ring` with element set
    `members` reads `status` at `cell`."""

    def patch(monkeypatch):
        real = theorems.status_grid

        def forced(ideal, size):
            grid = real(ideal, size)
            if _key(ideal) == (ring, frozenset(members)):
                return _with_cell(grid, cell, status)
            return grid

        monkeypatch.setattr(theorems, "status_grid", forced)

    return patch


def _flip_image(ring, members, modulus, cell, status):
    """A patch: the grid `theorems.image_grids` gives the image of the
    ideal of `ring` with element set `members` modulo the ideal with
    element set `modulus` reads `status` at `cell`."""

    def patch(monkeypatch):
        real = theorems.image_grids

        def forced(ideals, size):
            grids = real(ideals, size)
            target = ((ring, frozenset(members)), frozenset(modulus))
            for below, row in zip(ideals, grids):
                for i, ideal in enumerate(ideals):
                    if row[i] is not None and (_key(ideal), below.elements) == target:
                        row[i] = _with_cell(row[i], cell, status)
            return grids

        monkeypatch.setattr(theorems, "image_grids", forced)

    return patch


def _flip_rows(ring, element, cell):
    """A patch: the vnr table of `element` of `ring` reads False at `cell`."""

    def patch(monkeypatch):
        real = theorems.vnr_rows

        def forced(r, x, size):
            rows = real(r, x, size)
            return _with_cell(rows, cell, False) if (r.spec_str, x) == (ring, element) else rows

        monkeypatch.setattr(theorems, "vnr_rows", forced)

    return patch


def _force(name, target, args, answer):
    """A patch: `theorems.<name>` answers `answer` when called on `target`
    (a ring spec, or a (ring spec, element set) pair for an ideal) with
    the further positional arguments `args`."""
    if isinstance(target, tuple):
        target = (target[0], frozenset(target[1]))

    def patch(monkeypatch):
        real = getattr(theorems, name)

        def forced(first, *rest, **options):
            if (_key(first), rest) == (target, args):
                return answer
            return real(first, *rest, **options)

        monkeypatch.setattr(theorems, name, forced)

    return patch


_FORCED_CASES = [
    pytest.param(
        "T-BASIC-1",
        _force("is_n_absorbing", ("Z8", {0, 4}), (1,), (True, None)),
        21, 0,
        {"ring": "Z8", "ideal_gens": [4], "ideal": [0, 4], "m": 2, "n": 1,
         "detail": "weakly n-absorbing ideal is not weakly (n+1,n)-closed"},
        id="T-BASIC-1",
    ),
    pytest.param(
        "T-BASIC-2",
        _flip_grid("Z6", {0, 2, 4}, (3, 3), _NOT_WEAKLY),
        65, 0,
        {"ring": "Z6", "ideal_gens": [2], "ideal": [0, 2, 4], "m": 3, "n": 1, "n_bigger": 3,
         "detail": "weak closedness is not monotone in the target exponent"},
        id="T-BASIC-2",
    ),
    pytest.param(
        "T-BASIC-3",
        _flip_grid("Z5", {0}, (4, 1), _NOT_WEAKLY),
        9, 0,
        {"ring": "Z5", "ideal_gens": [0], "ideal": [0], "m": 4, "n": 1,
         "detail": "weakly n-absorbing ideal is not weakly (m,n)-closed"},
        id="T-BASIC-3",
    ),
    pytest.param(
        "T-BASIC-4",
        _flip_grid("Z6", {0}, (2, 1), _NOT_WEAKLY),
        28, 2,
        {"ring": "Z6", "ideal_gens": [3], "ideal": [0, 3], "m": 2, "n": 1,
         "other_ideal": [0, 2, 4],
         "detail": "intersection of weakly closed ideals is not weakly closed"},
        id="T-BASIC-4",
    ),
    pytest.param(
        "T-NIL",
        _flip_grid("Z6", {0, 2, 4}, (3, 2), _WEAKLY),
        66, 63,
        {"ring": "Z6", "ideal_gens": [2], "ideal": [0, 2, 4], "m": 3, "n": 2, "element": 2,
         "detail": "weakly-only ideal is not contained in the nilradical"},
        id="T-NIL",
    ),
    pytest.param(
        "T-NIL-CHAR",
        _flip_grid("Z2 x Z2", {(0, 0), (1, 0)}, (2, 1), _WEAKLY),
        43, 42,
        {"ring": "Z2 x Z2", "ideal_gens": [[1, 0], [0, 0]], "ideal": [[0, 0], [1, 0]],
         "m": 2, "n": 1, "element": [1, 0],
         "detail": "i**m != 0 despite prime characteristic m"},
        id="T-NIL-CHAR",
    ),
    pytest.param(
        "T-QUOT",
        _flip_image("Z4", {0, 2}, {0, 2}, (3, 1), _NOT_WEAKLY),
        14, 0,
        {"ring": "Z4", "ideal_gens": [2], "ideal": [0, 2], "m": 3, "n": 1,
         "modulus_ideal": [0, 2],
         "detail": "image of a weakly closed ideal is not weakly closed in the quotient"},
        id="T-QUOT",
    ),
    pytest.param(
        "T-PROD-CLOSED",
        _flip_grid("Z4 x Z2", {(0, 0), (0, 1)}, (2, 1), _CLOSED),
        82, 6,
        {"ring": "Z4 x Z2", "ideal_gens": [[0, 0], [0, 1]], "ideal": [[0, 0], [0, 1]],
         "m": 2, "n": 1,
         "detail": "direct closedness True but factor condition False"},
        id="T-PROD-CLOSED",
    ),
    pytest.param(
        "T-PROD-FACTOR",
        _flip_grid("Z4", {0, 2}, (3, 1), _WEAKLY),
        38, 2,
        {"ring": "Z2 x Z4", "ideal_gens": [[1, 0], [0, 2]],
         "ideal": [[0, 0], [0, 2], [1, 0], [1, 2]], "m": 3, "n": 1,
         "detail": "equivalence broken: weakly(IxR)=True, closed(I)=False, closed(IxR)=True"},
        id="T-PROD-FACTOR",
    ),
    pytest.param(
        "T-PROD-WEAK",
        _flip_grid("Z2 x Z4", {(0, 0)}, (2, 1), _CLOSED),
        10, 9,
        {"ring": "Z2 x Z4", "ideal_gens": [[0, 0]], "ideal": [[0, 0]], "m": 2, "n": 1,
         "detail": "direct weakly-only False but factor conditions True"},
        id="T-PROD-WEAK",
    ),
    pytest.param(
        "T-IDEALIZATION",
        _flip_grid("Z4 (+) Z2", {(0, 0), (0, 1), (2, 0), (2, 1)}, (2, 1), _WEAKLY),
        22, 17,
        {"ring": "Z4 (+) Z2", "ideal_gens": [[2, 0], [0, 1]],
         "ideal": [[0, 0], [0, 1], [2, 0], [2, 1]], "m": 2, "n": 1, "base_ideal": [0, 2],
         "detail": "direct weakly-only True but module criterion False"},
        id="T-IDEALIZATION",
    ),
    pytest.param(
        "T-PRINCIPAL",
        _flip_grid("Z32", {0, 16}, (3, 2), _WEAKLY),
        5, 2,
        {"ring": "Z32", "ideal_gens": [16], "ideal": [0, 16], "m": 3, "n": 2,
         "p": 2, "c": 5, "k": 4,
         "detail": "arithmetic conditions False but direct status True"},
        id="T-PRINCIPAL",
    ),
    pytest.param(
        "T-NILIDEAL",
        _flip_grid("Z8", {0, 4}, (3, 1), _NOT_WEAKLY),
        20, 1,
        {"ring": "Z8", "m": 3, "n": 1,
         "detail": "nil-contained ideals all weakly closed: False, "
                   "w**m == 0 on the nilradical: True"},
        id="T-NILIDEAL",
    ),
    pytest.param(
        "T-VNRFACTS-1",
        # a diagonal cell: m <= n holds there with equality
        _flip_rows("Z8", 2, (2, 2)),
        30, 0,
        {"ring": "Z8", "m": 2, "n": 2, "element": 2,
         "detail": "element not (m,n)-vnr despite m <= n"},
        id="T-VNRFACTS-1-diagonal",
    ),
    pytest.param(
        "T-VNRFACTS-7",
        _force("is_mn_regular_ring", "Z6", (4, 4), False),
        725, 425,
        {"ring": "Z6",
         "detail": "(2,1)-regular is True but all-pairs regular is False"},
        id="T-VNRFACTS-7-ring-rider",
    ),
    pytest.param(
        "T-BK",
        _force("_is_vnr", "Z8", (4, 2, 1), True),
        32, 0,
        {"ring": "Z8", "element": 4, "k": 2,
         "detail": "profile k is not minimal"},
        id="T-BK-minimality",
    ),
    pytest.param(
        "T-STRONG",
        _force("is_strongly_pi_regular", "Z6", (), (False, None)),
        13, 2,
        {"ring": "Z6", "m": 2, "n": 1,
         "detail": "(m,n)-regular ring is not strongly pi-regular"},
        id="T-STRONG-not-strongly",
    ),
    pytest.param(
        "T-STRONG",
        _force("krull_dim", "Z2 x Z2", (), 1),
        22, 5,
        {"ring": "Z2 x Z2", "m": 2, "n": 1,
         "detail": "(m,n)-regular ring has nonzero dimension"},
        id="T-STRONG-dimension",
    ),
    pytest.param(
        "T-SPR",
        _force("krull_dim", "Z4", (), 1),
        3, 0,
        {"ring": "Z4",
         "detail": "strongly pi-regular equivalence broken: direct True, some-pair True, "
                   "uniform-n True, structural False"},
        id="T-SPR-equivalence",
    ),
    pytest.param(
        "T-SPR",
        _force("vnr_profile_ring", "Z8", (), regularity.VnrProfile(9)),
        7, 0,
        {"ring": "Z8",
         "detail": "smallest strongly-pi exponent 3 differs from profile k"},
        id="T-SPR-smallest-k",
    ),
    pytest.param(
        "T-SPR",
        # L = 4 in Z8: an index past L breaks the structural clause
        _force("_unbounded_nilpotency_index", "Z8", (2,), 5),
        7, 0,
        {"ring": "Z8",
         "detail": "strongly pi-regular equivalence broken: direct True, some-pair True, "
                   "uniform-n True, structural False"},
        id="T-SPR-nilpotency-bound",
    ),
    pytest.param(
        "T-ALLWEAK",
        _force("_weakly_closed_characterization", "Z6", (3, 1), False),
        14, 0,
        {"ring": "Z6", "m": 3, "n": 1,
         "detail": "all ideals weakly closed: True, element characterization: False"},
        id="T-ALLWEAK",
    ),
    pytest.param(
        "T-ALLCLOSED",
        _force("is_mn_regular_ring", "Z6", (2, 2), False),
        42, 2,
        {"ring": "Z6", "m": 2, "n": 2,
         "detail": "all ideals closed: True, ring regular: False"},
        id="T-ALLCLOSED",
    ),
    pytest.param(
        "T-DIM0",
        _flip_grid("Z6", {0, 3}, (3, 2), _WEAKLY),
        15, 2,
        {"ring": "Z6", "m": 3, "n": 2,
         "detail": "three-way equivalence broken: all ideals closed False, regular True, "
                   "dim-0-with-vanishing-nil True"},
        id="T-DIM0",
    ),
    pytest.param(
        "T-REDUCED",
        _force("is_mn_regular_ring", "Z2 x Z2", (3, 1), False),
        49, 2,
        {"ring": "Z2 x Z2", "m": 3, "n": 1,
         "detail": "reduced-ring equivalence broken: weakly True, closed True, regular False"},
        id="T-REDUCED",
    ),
    pytest.param(
        "T-ZPK",
        _force("vnr_profile_ring", "Z8", (), regularity.VnrProfile(2)),
        6, 0,
        {"ring": "Z8", "expected_k": 3, "got_k": 2,
         "detail": "Z_(p**k) does not have profile B_k"},
        id="T-ZPK",
    ),
    pytest.param(
        "T-PRODMAX",
        _force("vnr_profile_ring", "Z4 x Z2", (), regularity.VnrProfile(1)),
        3, 0,
        {"ring": "Z4 x Z2", "expected_k": 2, "got_k": 1,
         "detail": "product profile is not the factor maximum"},
        id="T-PRODMAX",
    ),
]


@pytest.mark.parametrize("theorem_id, patch, checked, vacuous, record", _FORCED_CASES)
def test_forced_failures_are_pinned_and_replay(
    monkeypatch, theorem_id, patch, checked, vacuous, record
):
    patch(monkeypatch)
    verdict = verify_theorem(theorem_id, _FORCED_FAMILY)
    assert verdict.status == FAIL
    assert (verdict.instances_checked, verdict.vacuous_count) == (checked, vacuous)
    assert verdict.counterexample == record
    assert replay_counterexample(verdict, _FORCED_FAMILY)


def test_nil_walks_are_keyed_by_containment_too(monkeypatch):
    # one grid object, weakly-only at (2, 1), for {0} inside Nil(Z12) =
    # {0, 6} and for {0, 4, 8} outside it: the second ideal reads the same
    # grid and must still be walked, and fail
    real = theorems.status_grid
    shared = {}

    def forced(ideal, size):
        if ideal.ring.spec_str == "Z12" and ideal.elements in ({0}, {0, 4, 8}):
            if size not in shared:
                zero = ideal_from_generators(ideal.ring, ())
                shared[size] = _with_cell(real(zero, size), (2, 1), _WEAKLY)
            return shared[size]
        return real(ideal, size)

    monkeypatch.setattr(theorems, "status_grid", forced)
    family = make_family(
        cyclic_moduli=(12,), product_moduli=(), idealization_max=1, m_max=3,
        principal_primes=(), principal_max_exponent=2,
    )
    verdict = verify_theorem("T-NIL", family)
    assert verdict.status == FAIL
    record = verdict.counterexample
    assert (record["ideal"], record["m"], record["n"], record["element"]) == ([0, 4, 8], 2, 1, 4)


# --- separating-witness searches ----------------------------------------------


def test_search_predicates_list():
    assert set(SEARCH_PREDICATES) == {
        "weak-not-closed-exists",
        "weak-not-monotone-in-m",
        "weakly-closed-not-weakly-radical",
    }
    with pytest.raises(KeyError):
        search_counterexamples("nope", tiny_family())


@pytest.fixture(scope="module")
def search_family():
    return make_family(
        cyclic_moduli=tuple(range(2, 17)), product_moduli=(), idealization_max=1,
        principal_primes=(), principal_max_exponent=2, m_max=3,
    )


def test_search_weak_not_closed(search_family):
    witnesses = search_counterexamples("weak-not-closed-exists", search_family)
    assert {
        "ring_spec": "Z8", "ideal_gens": [4], "m": 3, "n": 1,
        "status": "weakly_only", "witness": 2,
    } in witnesses


def test_search_weak_not_monotone(search_family):
    witnesses = search_counterexamples("weak-not-monotone-in-m", search_family)
    hits = [
        w for w in witnesses
        if w["ring"] == "Z8" and w["ideal_gens"] == [4]
        and w["m"] == 3 and w["m_smaller"] == 2 and w["n"] == 1
    ]
    assert hits


def test_search_weakly_closed_not_weakly_radical(search_family):
    witnesses = search_counterexamples("weakly-closed-not-weakly-radical", search_family)
    hits = [
        w for w in witnesses
        if w["ring"] == "Z16" and w["ideal_gens"] == [8]
        and w["m"] == 2 and w["n"] == 1
    ]
    assert hits and hits[0]["radical_witness"] == [2, 3]


def test_prod_weak_reaches_its_closed_other_side_case(monkeypatch):
    # `_add2_condition` returns the other side's closedness only when one
    # side is weakly-only and holds a nonzero m-th power while the other
    # side holds none.  On Z8 (+) Z8 x Z2 one ideal reaches that case, at
    # (3, 1), with a closed other side, and the theorem still holds there.
    reached = []
    real = theorems._add2_condition

    def spy(side, other, m, n):
        (side_grid, side_lands), (other_grid, other_lands) = side, other
        if side_grid[m][n] == _WEAKLY and m in side_lands and m not in other_lands:
            reached.append((m, n, other_grid[m][n]))
        return real(side, other, m, n)

    monkeypatch.setattr(theorems, "_add2_condition", spy)
    family = make_family(
        cyclic_moduli=(), product_moduli=(), idealization_max=1, m_max=3,
        principal_primes=(), principal_max_exponent=2,
        extra_specs=(parse_ring_spec("Z8 (+) Z8 x Z2"),),
    )
    verdict = verify_theorem("T-PROD-WEAK", family)
    assert (verdict.status, verdict.instances_checked, verdict.vacuous_count) == (PASS, 75, 66)
    assert reached == [(3, 1, _CLOSED)]


def test_grids_reach_every_pair_past_grid_max():
    # pairs and n + 1 steps up to 4 on a grid_max of 2: every checker must
    # read grids as long as `InstanceFamily.max_exponent`, not grid_max
    family = make_family(
        cyclic_moduli=tuple(range(2, 9)), product_moduli=(2, 4), idealization_max=4,
        principal_primes=(2,), principal_max_exponent=5, m_max=4, grid_max=2,
        spot_pairs=((1, 1), (1, 3)),
    )
    assert (family.grid_max, family.max_exponent) == (2, 4)
    for theorem_id in THEOREM_IDS:
        assert verify_theorem(theorem_id, family).status == PASS, theorem_id
