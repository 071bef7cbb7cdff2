"""Element and ring regularity: profiles, grids, equivalences."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from closure_lab import (
    ForeignElementError,
    VnrProfile,
    all_proper_ideals_closed,
    all_proper_ideals_weakly_closed,
    build_ring,
    enumerate_ideals,
    is_mn_closed,
    is_mn_regular_ring,
    is_mn_vnr,
    is_strongly_pi_regular,
    krull_dim,
    parse_ring_spec,
    regularity_record,
    vnr_grid,
    vnr_profile_element,
    vnr_profile_ring,
)

from closure_lab.regularity import _weakly_closed_characterization, vnr_rows

from _oracles import (
    brute_divides,
    brute_element_profile,
    brute_nilpotents,
    brute_power,
    brute_vnr_witness,
)
from _strategies import KIND_RINGS, small_rings


def ring(text):
    return build_ring(parse_ring_spec(text))


def test_profile_shape():
    assert VnrProfile(1).contains(9, 1)
    assert VnrProfile(3).contains(2, 5)
    assert VnrProfile(3).contains(5, 3)
    assert not VnrProfile(3).contains(5, 2)
    omega = VnrProfile(None)
    assert omega.is_omega
    assert omega.contains(2, 2) and not omega.contains(3, 2)
    assert str(VnrProfile(3)) == "B(3)"
    assert str(omega) == "B(omega)"


def test_profile_chain_is_decreasing():
    pairs = [(m, n) for m in range(1, 8) for n in range(1, 8)]
    sets = [
        {p for p in pairs if VnrProfile(k).contains(*p)} for k in range(1, 6)
    ]
    for smaller, bigger in zip(sets[1:], sets):
        assert smaller < bigger
    omega_set = {p for p in pairs if VnrProfile(None).contains(*p)}
    assert omega_set < sets[-1]


def test_is_mn_vnr_examples():
    z8 = ring("Z8")
    assert is_mn_vnr(z8, 2, 2, 1) == (False, None)
    assert is_mn_vnr(z8, 2, 5, 3) == (True, 0)
    for unit in (1, 3, 5, 7):
        for m in range(1, 5):
            for n in range(1, 5):
                assert is_mn_vnr(z8, unit, m, n)[0]


def test_element_queries_reject_foreign_elements():
    # 10 is no element of Z8, although it reduces to 2 mod 8
    z8 = ring("Z8")
    with pytest.raises(ForeignElementError):
        vnr_grid(z8, 10, 2, 2)
    with pytest.raises(ForeignElementError):
        is_mn_vnr(z8, 10, 2, 1)
    with pytest.raises(ForeignElementError):
        is_mn_vnr(ring("Z4 (+) Z2"), (1, 2), 1, 1)


@pytest.mark.parametrize("text", ["Z12", "Z2 x Z4", "Z8 (+) Z4", "Z24/(8)"])
def test_associates_share_one_vnr_table(text):
    # x and ux are (m,n)-vnr together, so every element reads the table of
    # its class entry; entries read their own, so an entry past the first
    # of its class has an equal table of its own
    r = ring(text)
    size = r.order.bit_length() + 2
    for x in r.elements:
        rows = vnr_rows(r, x, size)
        assert rows is vnr_rows(r, r.class_entry(x), size), x
        for u in r.units:
            assert vnr_rows(r, r.mul(u, x), size) == rows, (x, u)
    with pytest.raises(ForeignElementError):
        vnr_rows(ring("Z8"), 10, 2)


@pytest.mark.parametrize("text", KIND_RINGS + ["Z16 (+) Z16", "Z2 x Z2 x Z2"])
def test_equal_vnr_tables_and_rows_of_a_ring_are_one_object(text):
    # interned per ring; sizes past L pad the L table, and are interned too
    r = ring(text)
    for size in (3, r.power_bound, r.power_bound + 2):
        tables = [vnr_rows(r, x, size) for x in r.representatives]
        rows = [row for table in tables for row in table]
        for found in (tables, rows):
            first = {}
            for value in found:
                assert first.setdefault(value, value) is value


def test_a_boolean_ring_keeps_one_vnr_table():
    # every element of Z2 x Z2 x Z2 is idempotent, so all eight are
    # (m,n)-vnr everywhere: one table, whose rows past the first are one row
    r = ring("Z2 x Z2 x Z2")
    tables = {id(vnr_rows(r, x, 5)): vnr_rows(r, x, 5) for x in r.elements}
    assert len(tables) == 1
    (table,) = tables.values()
    assert len({id(row) for row in table[1:]}) == 1 and all(table[1][1:])


def test_profile_element_examples():
    assert vnr_profile_element(ring("Z8"), 2) == VnrProfile(3)
    assert vnr_profile_element(ring("Z16"), 4) == VnrProfile(2)
    assert vnr_profile_element(ring("Z8"), 3) == VnrProfile(1)


def test_profile_ring_examples():
    assert vnr_profile_ring(ring("Z8")) == VnrProfile(3)
    assert vnr_profile_ring(ring("Z8 x Z4")) == VnrProfile(3)
    assert vnr_profile_ring(ring("Z5")) == VnrProfile(1)


def test_regular_ring_examples():
    z9 = ring("Z9")
    assert is_mn_regular_ring(z9, 3, 2)
    assert not is_mn_regular_ring(z9, 3, 1)
    assert is_mn_regular_ring(ring("Z6"), 2, 1)
    # cross-check (3,2) on Z9 through the ideals route
    assert all_proper_ideals_closed(z9, 3, 2)
    assert not all_proper_ideals_closed(z9, 3, 1)
    for m, n in ((0, 1), (2, 0), (-1, 1)):
        with pytest.raises(ValueError):
            all_proper_ideals_closed(z9, m, n)


def test_all_proper_ideals_weakly_closed_examples():
    assert all_proper_ideals_weakly_closed(ring("Z8"), 3, 1)
    assert not all_proper_ideals_weakly_closed(ring("Z8"), 2, 1)
    assert all_proper_ideals_weakly_closed(ring("Z16"), 4, 1)
    with pytest.raises(ValueError):
        all_proper_ideals_weakly_closed(ring("Z8"), 2, 2)


def test_strongly_pi_regular_examples():
    assert is_strongly_pi_regular(ring("Z8")) == (True, 3)
    assert is_strongly_pi_regular(ring("Z5")) == (True, 1)
    assert is_strongly_pi_regular(ring("Z16 x Z9")) == (True, 4)


def test_regularity_record_fields():
    record = regularity_record(ring("Z8"))
    assert record == {
        "ring_spec": "Z8",
        "k": 3,
        "strongly_pi_regular": True,
        "per_element_max_witness": 2,
    }


@settings(max_examples=30, deadline=None)
@given(small_rings, st.data())
def test_vnr_matches_oracle(r, data):
    m = data.draw(st.integers(1, 5))
    n = data.draw(st.integers(1, 5))
    for x in r.elements:
        ok, witness = is_mn_vnr(r, x, m, n)
        expected = brute_vnr_witness(r, x, m, n)
        # divisibility decides, and the witness is the first solution
        assert ok == r.divides(r.power(x, m), r.power(x, n)) == (expected is not None)
        assert witness == expected
        if ok:
            assert r.mul(r.power(x, m), witness) == r.power(x, n)


@settings(max_examples=25, deadline=None)
@given(small_rings, st.data())
def test_grid_has_profile_shape(r, data):
    x = data.draw(st.sampled_from(r.elements))
    profile = vnr_profile_element(r, x)
    grid = vnr_grid(r, x, 6, 6)
    for (m, n), ok in grid.items():
        assert ok == profile.contains(m, n)
    # minimality of k
    if profile.k > 1:
        assert not is_mn_vnr(r, x, profile.k, profile.k - 1)[0]


@settings(max_examples=25, deadline=None)
@given(small_rings)
def test_ring_profile_is_element_maximum(r):
    ks = [vnr_profile_element(r, x).k for x in r.elements]
    assert vnr_profile_ring(r) == VnrProfile(max(ks))
    # and it is never omega on a finite ring
    assert not vnr_profile_ring(r).is_omega


@settings(max_examples=25, deadline=None)
@given(small_rings)
def test_units_and_nilpotents_profiles(r):
    for u in r.units:
        assert vnr_profile_element(r, u) == VnrProfile(1)
    for w in r.nilpotents:
        k = r.nilpotency_index(w)
        expected = 1 if k == 1 else k
        assert vnr_profile_element(r, w) == VnrProfile(expected)


@settings(max_examples=15, deadline=None)
@given(small_rings, st.data())
def test_regular_ring_equals_ideal_route(r, data):
    m = data.draw(st.integers(2, 4))
    n = data.draw(st.integers(1, m - 1))
    enum = enumerate_ideals(r)
    direct = is_mn_regular_ring(r, m, n)
    via_ideals = all(is_mn_closed(i, m, n)[0] for i in enum.proper)
    structural = krull_dim(r) == 0 and all(
        r.power(w, n) == r.zero for w in r.nilpotents
    )
    assert direct == via_ideals == structural


@pytest.mark.parametrize(
    "text",
    ["Z12", "Z16", "Z2 x Z4", "Z4 x Z6", "Z4 (+) Z2", "Z8 (+) Z4", "Z9 (+) Z3",
     "Z24/(8)", "Z30/(6)", "(Z4 x Z4)/(2)"],
)
def test_ring_level_sweeps_match_every_element(text):
    # these sweeps visit one element per associate class
    r = ring(text)
    ks = [brute_element_profile(r, x) for x in r.elements]
    k = max(ks)
    assert vnr_profile_ring(r) == VnrProfile(k)
    first = r.elements[ks.index(k)]
    assert regularity_record(r)["per_element_max_witness"] == json.loads(json.dumps(first))
    nil = brute_nilpotents(r)
    for m in range(1, 5):
        for n in range(1, 5):
            vnr = {
                x: brute_divides(r, brute_power(r, x, m), brute_power(r, x, n))
                for x in r.elements
            }
            assert is_mn_regular_ring(r, m, n) == all(vnr.values()), (m, n)
            expected = all(
                brute_power(r, x, m) == r.zero if x in nil else vnr[x] for x in r.elements
            )
            assert _weakly_closed_characterization(r, m, n) == expected, (m, n)


@pytest.mark.parametrize(
    "text",
    ["Z2", "Z16", "Z12", "Z2 x Z4", "Z4 x Z6", "Z4 (+) Z2", "Z8 (+) Z4", "Z9 (+) Z3",
     "Z24/(8)", "(Z4 x Z4)/(2)"],
)
def test_vnr_tables_match_divisibility(text):
    # every cell up to L + 3, L = order.bit_length(), so the padded ones too
    r = ring(text)
    size = r.order.bit_length() + 3
    vnr = {}
    for x in r.elements:
        powers = [brute_power(r, x, t) for t in range(size + 1)]
        rows = vnr_rows(r, x, size)
        for m in range(1, size + 1):
            for n in range(1, size + 1):
                vnr[x, m, n] = brute_divides(r, powers[m], powers[n])
                assert rows[m][n] == vnr[x, m, n], (x, m, n)
    for m in range(1, size + 1):
        for n in range(1, size + 1):
            expected = all(vnr[x, m, n] for x in r.elements)
            assert is_mn_regular_ring(r, m, n) == expected, (m, n)
    for m, n in ((0, 1), (1, 0)):
        with pytest.raises(ValueError):
            is_mn_regular_ring(r, m, n)
    with pytest.raises(ValueError):
        vnr_rows(r, r.one, 0)


def test_strongly_pi_smallest_matches_profile():
    for text in ["Z8", "Z9", "Z12", "Z2 x Z8", "Z4 (+) Z2", "Z27", "Z16/(8)"]:
        r = ring(text)
        strongly, smallest = is_strongly_pi_regular(r)
        assert strongly
        assert smallest == vnr_profile_ring(r).k
