"""Ideal construction, enumeration, quotients, primes, dimension."""

import functools
import gc
import math
import pickle
import re
import sys
import tracemalloc
import weakref
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from closure_lab import (
    CyclicZ,
    Idealization,
    Quotient,
    build_ring,
    clear_caches,
    enumerate_ideals,
    ideal_from_elements,
    ideal_from_generators,
    image_ideal,
    intersect_ideals,
    is_prime_ideal,
    is_proper,
    krull_dim,
    load_family,
    parse_ring_spec,
    quotient_ring,
    split_product_ideal,
)
from closure_lab import cli, closure, ideals, regularity, rings
from closure_lab.rings import FiniteRing, ProductRing
from closure_lab.theorems import THEOREM_IDS, verify_many

from _oracles import (
    brute_all_ideals,
    brute_ideal_lattice,
    brute_ideal_sum,
    naive_ideal_closure,
)
from _strategies import KIND_RINGS, small_rings

PINNED_FAMILY = Path(__file__).resolve().parent.parent / "perfbench" / "family.conf"


def ring(text):
    return build_ring(parse_ring_spec(text))


def test_generated_ideals_examples():
    assert ideal_from_generators(ring("Z8"), (4,)).members == (0, 4)
    assert ideal_from_generators(ring("Z16"), (8,)).members == (0, 8)
    assert ideal_from_generators(ring("Z8"), (2,)).members == (0, 2, 4, 6)
    assert ideal_from_generators(ring("Z8"), ()).members == (0,)


def test_is_proper():
    z8 = ring("Z8")
    assert is_proper(ideal_from_generators(z8, (4,)))
    assert not is_proper(ideal_from_generators(z8, (3,)))
    assert is_proper(ideal_from_generators(z8, ()))


@settings(max_examples=40, deadline=None)
@given(small_rings, st.data())
def test_closure_matches_naive_fixpoint(r, data):
    gens = data.draw(
        st.lists(st.sampled_from(r.elements), min_size=0, max_size=2, unique=True)
    )
    ideal = ideal_from_generators(r, gens)
    assert ideal.elements == naive_ideal_closure(r, gens)


@settings(max_examples=40, deadline=None)
@given(small_rings, st.data())
def test_ideal_invariants(r, data):
    gens = data.draw(st.lists(st.sampled_from(r.elements), min_size=0, max_size=2))
    ideal = ideal_from_generators(r, gens)
    assert r.zero in ideal
    for a in ideal.members:
        assert r.neg(a) in ideal
        for b in ideal.members:
            assert r.add(a, b) in ideal
        for x in r.elements:
            assert r.mul(x, a) in ideal


def test_enumerate_cyclic():
    enum = enumerate_ideals(ring("Z8"))
    assert [i.members for i in enum.ideals] == [
        (0,),
        (0, 4),
        (0, 2, 4, 6),
        tuple(range(8)),
    ]
    assert {i.elements for i in enum.ideals} == brute_all_ideals(ring("Z8"))
    assert len(enumerate_ideals(ring("Z12")).ideals) == 6
    assert len(enumerate_ideals(ring("Z2 x Z2")).ideals) == 4


@pytest.mark.parametrize("text", ["Z4 (+) Z2", "Z2 (+) Z2", "Z4 (+) Z4", "Z8/(4)", "Z12/(4)"])
def test_enumerate_matches_subset_oracle(text):
    r = ring(text)
    enum = enumerate_ideals(r)
    assert {i.elements for i in enum.ideals} == brute_all_ideals(r)


def test_enumerate_product_matches_subset_oracle():
    r = ring("Z2 x Z4")
    assert {i.elements for i in enumerate_ideals(r).ideals} == brute_all_ideals(r)


def test_quotient_ring_examples():
    z16 = ring("Z16")
    q = quotient_ring(z16, ideal_from_generators(z16, (8,)))
    assert q.order == 8
    assert q.power(q.project(2), 3) == q.zero  # 2bar**3 == 0 in Z16/(8)

    z8 = ring("Z8")
    trivial = quotient_ring(z8, ideal_from_generators(z8, ()))
    assert trivial.order == 8
    # the projection is an isomorphism on the nose for the zero ideal
    for x in z8.elements:
        for y in z8.elements:
            assert trivial.project(z8.add(x, y)) == trivial.add(
                trivial.project(x), trivial.project(y)
            )

    field = quotient_ring(z8, ideal_from_generators(z8, (2,)))
    assert field.order == 2


@pytest.mark.parametrize("text", KIND_RINGS)
def test_quotient_ring_is_built_from_the_held_ideal(text):
    # equal to the quotient the spec cache builds, but fresh, and keyed by
    # the key the ideal already holds
    r = ring(text)
    for j in enumerate_ideals(r).proper:
        literals = tuple(r.index_of(g) for g in j.generators)
        spec_built = build_ring(Quotient(r.spec, literals))
        q = quotient_ring(r, j)
        assert q.key == spec_built.key == j.key
        assert q == spec_built and q is not spec_built
        assert q.elements == spec_built.elements
        assert list(map(q.project, r.elements)) == list(map(spec_built.project, r.elements))
        assert q.representatives == spec_built.representatives


def test_equal_ideals_built_apart_share_every_table():
    # every table of an ideal is kept on its ring under the ideal's key, so
    # an equal ideal built after the first is gone reads the same objects
    clear_caches()
    r = ring("Z12")
    first = ideal_from_generators(r, (4,))

    def tables(i):
        return [
            closure._thresholds(i),
            closure.status_grid(i, 4),
            closure.is_n_absorbing(i, 1)[1],
            closure.is_n_absorbing(i, 1, weak=True)[1],
        ]

    kept = tables(first)
    assert kept[2] == kept[3] == (2, 2)  # witnesses, so objects to share
    del first
    second = ideal_from_generators(r, (8, 0))
    assert all(a is b for a, b in zip(tables(second), kept, strict=True))


def _ask_every_ring_table(r):
    # its lattice, Krull dimension, vnr and regular rows, and every table of
    # one ideal: tau bytes and grid, nilpotents' class positions, n-absorbing
    # answers
    lattice = enumerate_ideals(r)
    krull_dim(r)
    regularity.vnr_rows(r, r.one, 3)
    regularity.regular_rows(r)
    closure.status_grid(lattice.proper[-1], 4)
    closure.unbreakable_zero_elements(lattice.proper[-1], 2, 1)
    closure.is_n_absorbing(lattice.proper[-1], 2, weak=True)


def test_ring_tables_are_freed_with_a_fresh_quotient():
    r = ring("Z2 x Z8")
    q = quotient_ring(r, ideal_from_generators(r, ((0, 4),)))
    _ask_every_ring_table(q)
    probe = weakref.ref(q)
    del q
    gc.collect()
    assert probe() is None


def test_ring_tables_are_freed_with_the_spec_cache():
    r = ring("Z4 (+) Z2")
    _ask_every_ring_table(r)
    probe = weakref.ref(r)
    del r
    rings._build_cached.cache_clear()
    gc.collect()
    assert probe() is None


def test_clear_caches_frees_a_ring_with_its_lattice_without_the_collector():
    # a ring and its lattice refer to each other, and `cli.run` turns
    # automatic collection off
    r = ring("Z12")
    enumerate_ideals(r)
    probe = weakref.ref(r)
    del r
    gc.disable()
    try:
        clear_caches()
        assert probe() is None
    finally:
        gc.enable()


def test_a_pickled_ring_leaves_its_tables_behind():
    r = ring("Z12 x Z2")
    lattice = enumerate_ideals(r)
    copy = pickle.loads(pickle.dumps(r))
    assert copy == r and copy is not r and copy.tables == {}
    assert [i.elements for i in enumerate_ideals(copy).ideals] == [
        i.elements for i in lattice.ideals
    ]


def test_module_level_caches_are_the_three_keyed_on_values():
    assert cli  # every closure_lab module is loaded
    namespaces = [vars(m) for n, m in sys.modules.items() if n.split(".")[0] == "closure_lab"]
    namespaces += [
        vars(c)
        for ns in namespaces
        for c in ns.values()
        if isinstance(c, type) and c.__module__.split(".")[0] == "closure_lab"
    ]
    caches = {
        id(obj): obj
        for ns in namespaces
        for obj in ns.values()
        if isinstance(obj, functools._lru_cache_wrapper)
    }.values()
    assert sorted(f"{c.__module__}.{c.__qualname__}" for c in caches) == [
        "closure_lab.closure._signature_grid",
        "closure_lab.rings._build_cached",
        "closure_lab.rings._factorize",
    ]
    r = ring("Z12 x Z2")
    closure.status_grid(ideal_from_generators(r, ((2, 0),)), 3)
    rings._factorize(12)
    assert all(c.cache_info().currsize for c in caches)
    clear_caches()
    assert not any(c.cache_info().currsize for c in caches)


def test_quotient_requires_proper():
    z8 = ring("Z8")
    with pytest.raises(ValueError, match="improper"):
        quotient_ring(z8, ideal_from_generators(z8, (1,)))


def test_prime_and_dimension_examples():
    z8 = ring("Z8")
    assert is_prime_ideal(ideal_from_generators(z8, (2,)))
    assert not is_prime_ideal(ideal_from_generators(z8, (4,)))
    assert krull_dim(z8) == 0


@pytest.mark.parametrize(
    "text",
    ["Z6", "Z36", "Z64", "Z2 x Z2", "Z8 x Z9", "Z4 (+) Z2", "Z16 (+) Z16", "Z16/(8)"],
)
def test_krull_dimension_zero(text):
    assert krull_dim(ring(text)) == 0


@pytest.fixture
def fresh_krull_dim():
    # a fresh ring has no Krull dimension kept yet
    clear_caches()
    yield
    clear_caches()


@pytest.mark.parametrize(
    "text, prime, expected",
    [
        ("Z8", lambda i: True, 2),  # 0 < 4Z8 < 2Z8
        ("Z2 x Z2", lambda i: True, 1),  # 0 < Z2 x 0
        ("Z8", lambda i: False, -1),
    ],
)
def test_krull_dim_chains_of_patched_primes(monkeypatch, fresh_krull_dim, text, prime, expected):
    # finite rings have dimension 0, so the chain walk only runs when
    # primality is forced: every proper ideal "prime" gives the longest
    # inclusion chain of proper ideals, none prime gives -1
    monkeypatch.setattr(ideals, "is_prime_ideal", prime)
    assert krull_dim(ring(text)) == expected


def test_ideal_lattice_maps_onto_quotient_ideals():
    # ideals above J correspond to ideals of R/J, bijectively
    for text in ["Z16", "Z2 x Z4", "Z8 (+) Z2"]:
        r = ring(text)
        enum = enumerate_ideals(r)
        assert {i.elements for i in enum.ideals} == brute_ideal_lattice(r)
        for j in enum.proper:
            q = quotient_ring(r, j)
            above = [i for i in enum.ideals if j.elements <= i.elements]
            images = {image_ideal(q, i).elements for i in above}
            q_ideals = {i.elements for i in enumerate_ideals(q).ideals}
            assert images == q_ideals
            assert len(images) == len(above)


@pytest.mark.parametrize("text", KIND_RINGS)
def test_an_image_ideal_is_keyed_by_its_preimage(text):
    # the ideals of R/J are the ideals of R that contain J: the image of
    # such an I is keyed by I itself, with no coset walk; the image of any
    # I is the set of its cosets
    r = ring(text)
    lattice = enumerate_ideals(r).ideals
    for j in enumerate_ideals(r).proper:
        q = quotient_ring(r, j)
        for i in lattice:
            image = image_ideal(q, i)
            assert image.elements == frozenset(map(q.project, i.elements))
            assert image == ideal_from_generators(q, map(q.project, i.generators))
            if j <= i:
                assert image.key == i.key


@pytest.mark.parametrize("literal, code, shown", [("4100", 1, "error:"), ("8", 0, "closed")])
def test_a_check_on_a_large_trivial_extension_computes_no_closure(capsys, literal, code, shown):
    # (1025, 0) is a unit of Z8192 (+) Z4, so its ideal is improper, and
    # (2, 0) generates an ideal of 16384 members: both are keyed in closed form
    args = ["check", "--ring", "Z8192 (+) Z4", "--ideal", literal, "--m", "3", "--n", "2"]
    assert cli.main(args) == code
    out, err = capsys.readouterr()
    assert shown in out + err


def test_intersection_is_ideal():
    z12 = ring("Z12")
    a = ideal_from_generators(z12, (4,))
    b = ideal_from_generators(z12, (6,))
    meet = intersect_ideals(a, b)
    assert meet.elements == a.elements & b.elements
    assert meet.elements == naive_ideal_closure(z12, meet.generators)


def test_split_product_ideal():
    r = ring("Z4 x Z6")
    enum = enumerate_ideals(r)
    for ideal in enum.ideals:
        left, right = split_product_ideal(r, ideal)
        assert ideal.elements == frozenset(
            (a, b) for a in left.elements for b in right.elements
        )
    # the additive subgroup of (2, 3) is no ideal: its projections do not tile it
    with pytest.raises(ValueError, match="not an ideal of Z4 x Z6"):
        ideal_from_elements(r, {(0, 0), (2, 3)})


@pytest.mark.parametrize(
    "text, elements",
    [
        ("Z12", {0, 3}),  # (3) = {0, 3, 6, 9}
        ("Z4 (+) Z2", {(0, 0), (1, 0)}),  # (1, 0) is a unit
        ("Z24/(8)", {0, 3}),  # 3 + 3 = 6
        ("Z24/(8) x Z4", {(0, 0), (4, 2)}),  # a subgroup, but no rectangle
    ],
)
def test_a_set_that_is_no_ideal_is_refused(text, elements):
    # the set generates a larger ideal; it is never wrapped as one
    with pytest.raises(ValueError, match=re.escape(f"not an ideal of {text}:")):
        ideal_from_elements(ring(text), elements)


def test_enumeration_is_deterministic():
    first = enumerate_ideals(ring("Z4 (+) Z4"))
    second = enumerate_ideals(build_ring(parse_ring_spec("Z4 (+) Z4")))
    assert [i.members for i in first.ideals] == [i.members for i in second.ideals]
    assert [i.generators for i in first.ideals] == [i.generators for i in second.ideals]


def test_enumerate_matches_lattice_oracle_on_pinned_family():
    # the fixpoint kinds: every cyclic ring and trivial extension of the
    # pinned family
    family = load_family(str(PINNED_FAMILY))
    rings = [build_ring(spec, family.max_order) for spec in family.ring_specs]
    rings = [r for r in rings if not isinstance(r, ProductRing)]
    assert len(rings) == 63 + 49
    for r in rings:
        enum = enumerate_ideals(r)
        assert {i.elements for i in enum.ideals} == brute_ideal_lattice(r), r.spec_str
        assert len(enum.ideals) == len({i.elements for i in enum.ideals}), r.spec_str


@pytest.mark.parametrize(
    "text",
    ["Z32 (+) Z16", "(Z4 x Z4)/(2)", "(Z16 x Z8)/(2)", "(Z32 x Z16)/(4)", "(Z4 x Z4)/(2) x Z4"],
)
def test_enumerate_matches_lattice_oracle_beyond_the_family(text):
    # order 512, quotients of products, and a product with a quotient factor
    r = ring(text)
    enum = enumerate_ideals(r)
    assert {i.elements for i in enum.ideals} == brute_ideal_lattice(r)
    assert len(enum.ideals) == len({i.elements for i in enum.ideals})


def _fixpoint_without_skip(r):
    # the join loop as it was before sums J + P with J <= P were skipped,
    # on element sets: (element set, generators) of every ideal
    found = {}
    for x in r.representatives:
        found.setdefault(naive_ideal_closure(r, (x,)), (x,))
    principal = sorted(found.items(), key=lambda kv: kv[1])
    frontier = principal
    while frontier:
        grown = []
        for members, gens in frontier:
            for extra_members, extra_gens in principal:
                if extra_members <= members:
                    continue
                joined = brute_ideal_sum(r, members, extra_members)
                if joined not in found:
                    found[joined] = gens + extra_gens
                    grown.append((joined, gens + extra_gens))
        frontier = sorted(grown, key=lambda kv: kv[1])
    return {members: gens for members, gens in found.items()}


@pytest.mark.parametrize("text", KIND_RINGS)
def test_join_skip_keeps_every_ideal_and_its_generators(text):
    # J + P == P when J <= P, a principal ideal found already, so skipping
    # those sums changes neither the ideals nor their generators
    r = ring(text)
    expected = _fixpoint_without_skip(r)
    enumerations = [ideals._enumerate_by_generators(r)]
    if not isinstance(r, ProductRing):
        enumerations.append(enumerate_ideals(r))
    for enum in enumerations:
        assert {i.elements: i.generators for i in enum.ideals} == expected


def test_lattice_oracle_matches_subset_oracle():
    for text in ["Z4 (+) Z2", "Z2 x Z4", "Z8/(4)", "(Z4 x Z4)/(2)", "Z6"]:
        r = ring(text)
        assert brute_ideal_lattice(r) == brute_all_ideals(r), text


def test_proper_ideals_are_listed_once():
    enumeration = enumerate_ideals(ring("Z12 (+) Z6"))
    assert enumeration.proper is enumeration.proper
    assert enumeration.proper == tuple(i for i in enumeration.ideals if is_proper(i))


# --- closed forms: ideals of every ring kind by key ---------------------------

CLOSED_FORM_RINGS = KIND_RINGS + ["Z2 x Z2 x Z4", "Z16 (+) Z16"]


@pytest.mark.parametrize("text", CLOSED_FORM_RINGS)
def test_closed_form_ideals_match_the_lattice_oracle(text):
    r = ring(text)
    lattice = enumerate_ideals(r).ideals
    sets = [i.elements for i in lattice]
    assert set(sets) == brute_ideal_lattice(r) and len(sets) == len(lattice)
    for ideal, members in zip(lattice, sets):
        assert _plain_key(ideal.key)
        assert [x for x in r.elements if x in ideal] == sorted(members)
        assert [x for x in r.elements if x in ideal.membership()] == sorted(members)
        assert len(ideal) == len(members) and ideal.members == tuple(sorted(members))
        wrapped = ideal_from_elements(r, members)
        assert wrapped == ideal and hash(wrapped) == hash(ideal) and wrapped.key == ideal.key
        for other, other_members in zip(lattice, sets):
            assert (ideal <= other) == (members <= other_members)
            assert (ideal < other) == (members < other_members)
            meet = ideal & other
            assert meet.elements == members & other_members
            assert meet == ideal_from_elements(r, members & other_members)


def test_cyclic_membership_is_false_off_the_ring():
    r = ring("Z12")
    for ideal in enumerate_ideals(r).ideals:
        d = ideal.key
        for x in (r.n, r.n + d, -d, (0, 0), (d,)):
            assert x not in ideal and x not in ideal.membership()


def _plain_key(key):
    # an int, a pair of keys, or (a, e, c) on a trivial extension
    if not isinstance(key, tuple):
        return isinstance(key, int)
    if len(key) == 3:
        return all(isinstance(part, int) for part in key)
    return len(key) == 2 and all(map(_plain_key, key))


def _aec(r, members):
    # read off the element set: aZ_n its first coordinates, eZ_d its meet
    # with 0 (+) Z_d, and c the least y with (a, y) in it
    a = math.gcd(r.n, *(x for x, _ in members))
    e = math.gcd(r.d, *(y for x, y in members if x == 0))
    return a, e, min(y for x, y in members if x == a % r.n)


@pytest.mark.parametrize("n", range(2, 25))
def test_a_trivial_extension_keys_an_ideal_by_a_e_c(n):
    # every Z_n (+) Z_d with d | n: the key, members, membership, size,
    # containment, meet, sum and generated key of every ideal and pair,
    # against the lattice oracle
    for d in (d for d in range(1, n + 1) if n % d == 0):
        r = ring(f"Z{n} (+) Z{d}")
        lattice = enumerate_ideals(r).ideals
        sets = [i.elements for i in lattice]
        assert set(sets) == brute_ideal_lattice(r) and len(sets) == len(lattice)
        for ideal, members in zip(lattice, sets):
            assert ideal.key == _aec(r, members)
            assert ideal.members == tuple(sorted(members)) and len(ideal) == len(members)
            assert [x for x in r.elements if x in ideal] == sorted(members)
            assert ideal_from_generators(r, ideal.generators).key == ideal.key
            assert ideal_from_generators(r, members).key == ideal.key
            for other, other_members in zip(lattice, sets):
                assert (ideal <= other) == (members <= other_members)
                assert (ideal & other).key == _aec(r, members & other_members)
                total = rings._sum(r, ideal.key, other.key)
                assert total == _aec(r, brute_ideal_sum(r, members, other_members))
    # the whole of Z_n (+) Z_n holds no foreign element
    for x in ((n, 0), (0, n), (-1, 0), (1,), (1, 0, 0), "1", None):
        assert x not in lattice[-1]


@pytest.mark.parametrize(
    "text", ["Z4096", "Z16 x Z16", "Z2 x Z2 x Z4", "Z12 x Z8", "Z16 (+) Z16", "Z12 (+) Z6"]
)
def test_closed_form_ideals_keep_no_element_list(text):
    r = ring(text)
    for ideal in enumerate_ideals(r).ideals:
        closure.status_grid(ideal, 4) if ideal.is_proper else None
        assert ideal.members and ideal.elements and repr(ideal)  # built, and not kept
        assert _plain_key(ideal.key)
        kept = gc.get_referents(ideal)
        assert not [x for x in kept if isinstance(x, frozenset)]
        assert not [x for x in kept if isinstance(x, tuple) and len(x) > 3]


def _traced(build):
    """The bytes that ``build()`` allocates and still holds once it
    returns, and its peak.  A full collection first empties the free
    lists, which keep freed tuples allocated."""
    tracemalloc.start()
    try:
        kept = build()
        gc.collect()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept is not None
    return held, peak


def test_a_principal_ideal_of_a_large_cyclic_ring_lists_no_elements():
    # T-PRINCIPAL's largest ideal, (27) of Z_(3**12): its grid reads the
    # 13 class-table entries, not the 19683 members
    clear_caches()
    r = ring("Z531441")
    assert len(r.representatives) == 13
    _, peak = _traced(lambda: closure.status_grid(ideal_from_generators(r, (27,)), 6))
    assert peak < 64 * 1024


def test_a_check_on_a_small_quotient_of_a_large_base_stays_small(capsys):
    # (Z512 x Z1024)/(4099) has order 4, and the preimage of its ideal (2)
    # holds 262144 pairs: neither that nor the base is listed
    clear_caches()
    args = ["check", "--ring", "(Z512 x Z1024)/(4099)", "--ideal", "2", "--m", "3", "--n", "2"]
    codes = []
    _, peak = _traced(lambda: codes.append(cli.main(args)) or codes)
    assert codes == [0] and "closed" in capsys.readouterr().out
    assert peak < 5 * 1024 * 1024
    assert "elements" not in ring("(Z512 x Z1024)/(4099)").base.__dict__


def test_a_product_lattice_and_its_grids_stay_small():
    # 25 ideals of up to 256 members each; their element sets alone took
    # about 110 KB
    clear_caches()
    r = ring("Z16 x Z16")
    assert len(r.representatives) == 25
    held, _ = _traced(lambda: [closure.status_grid(i, 6) for i in enumerate_ideals(r).proper])
    assert held < 120 * 1024


def test_many_rings_with_their_tables_stay_under_one_ceiling():
    # Z2 ... Z160 and every trivial extension Z_n (+) Z_d with n <= 16, each
    # with its lattice, a grid per proper ideal, the vnr table of every
    # element and its regular rows, all held by the spec cache: 5.8 MB
    # before the threshold tables became bytes and the vnr tables were
    # interned, 3.3 MB before the ideal tables moved from weak per-ideal
    # stores onto the ring, 2.8 MB before an element's class entry was read
    # off the key of its principal ideal instead of a map of every element,
    # about 1.7 MB after
    specs = [CyclicZ(n) for n in range(2, 161)]
    specs += [Idealization(n, d) for n in range(2, 17) for d in range(1, n + 1) if n % d == 0]

    def build():
        for spec in specs:
            r = build_ring(spec)
            for i in enumerate_ideals(r).proper:
                closure.status_grid(i, 6)
            for x in r.elements:
                regularity.vnr_rows(r, x, 7)
            regularity.regular_rows(r)
        return specs

    clear_caches()
    held, _ = _traced(build)
    clear_caches()
    assert len(specs) == 208 and held < 2.25 * 2 ** 20


# the entries the pinned catalog leaves in `FiniteRing.tables`, per build
# function, over the 164 rings the spec cache holds: one per ring and
# arguments, so a table keyed finer than its value (by generators, say)
# shows here as a larger count.  The absorbing answers are the 4275 - 2480
# (ideal, n) instances T-BASIC-1 and -3 share that the budget lets through,
# and T-ALLWEAK reads one summary of the class table per ring
PINNED_TABLE_ENTRIES = {
    "_absorbing_answer": 1795,
    "_characterization_summary": 148,
    "_entry_rows": 1359,
    "_grid_of": 949,
    "_interned": 148,
    "_nil_positions": 96,
    "_threshold_table": 949,
    "enumerate_ideals": 148,
    "krull_dim": 148,
    "power_chains": 164,
    "regular_rows": 148,
}


def test_the_pinned_catalog_holds_under_three_megabytes():
    # what the catalog keeps once it is done: rings, lattices and every
    # table; 5.2 MB before the threshold tables became bytes, the vnr
    # tables were interned and trivial extensions keyed ideals by bitmask
    family = load_family(str(PINNED_FAMILY))
    clear_caches()
    before = [r for r in gc.get_objects() if isinstance(r, FiniteRing)]
    old = {id(r) for r in before}  # `before` holds them, so no id is reused
    held, _ = _traced(lambda: verify_many(THEOREM_IDS, family))
    made = [r for r in gc.get_objects() if isinstance(r, FiniteRing) and id(r) not in old]
    assert len(made) == 164 and all(build_ring(r.spec) is r for r in made)
    entries = Counter(
        (key[0] if isinstance(key, tuple) else key).__name__ for r in made for key in r.tables
    )
    clear_caches()
    assert held < 2.9 * 2 ** 20
    assert entries == PINNED_TABLE_ENTRIES
