"""Ring realization: arithmetic, structure sets, caps, quotients."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from closure_lab import (
    CyclicZ,
    ForeignElementError,
    Idealization,
    OrderCapError,
    Quotient,
    SpecError,
    build_ring,
    characteristic,
    clear_caches,
    element_arithmetic,
    enumerate_ideals,
    ideal_from_elements,
    ideal_from_generators,
    nilpotency_index,
    nilradical,
    parse_ring_spec,
    power,
    quotient_ring,
    units,
    vnr_profile_element,
    zero_divisors,
)
from closure_lab import rings, theorems
from closure_lab.families import tiny_family

from _oracles import (
    brute_additive_order,
    brute_divides,
    brute_ideal_lattice,
    brute_least_associates,
    brute_multiples,
    brute_nilpotents,
    brute_power,
    brute_quotient,
    brute_units,
    brute_zero_divisors,
    exhaustive_ring_axioms,
)
from _strategies import KIND_RINGS, small_rings


def ring(text):
    return build_ring(parse_ring_spec(text))


def test_build_orders():
    assert ring("Z8").order == 8
    assert ring("Z8 (+) Z4").order == 32
    assert ring("Z8 x Z4").order == 32


def test_order_cap():
    with pytest.raises(OrderCapError):
        build_ring(CyclicZ(2 ** 21))
    with pytest.raises(OrderCapError):
        build_ring(CyclicZ(100), max_order=64)
    assert build_ring(CyclicZ(100), max_order=128).order == 100


def test_order_cap_holds_for_products_with_quotient_factors():
    # each factor has order 1000, within the cap; the product does not
    with pytest.raises(OrderCapError, match="has order 1000000, exceeding the cap 1000"):
        build_ring(parse_ring_spec("Z1000 x Z1000/(0)"), 1000)
    # a quotient's base is checked before the quotient walks it
    with pytest.raises(OrderCapError, match="^Z1000 has order 1000, exceeding the cap 999"):
        build_ring(parse_ring_spec("Z1000/(0) x Z2"), 999)


def test_one_ring_per_spec_whatever_the_cap():
    spec = parse_ring_spec("Z12 x Z4/(2)")
    first = build_ring(spec, 64)
    assert build_ring(spec, 2 ** 20) is first and build_ring(spec, 24) is first
    assert first.left is build_ring(CyclicZ(12), 12)


@pytest.mark.parametrize(
    "text, cap",
    [("Z64", 32), ("Z1000 x Z1000/(0)", 1000), ("Z1000/(0) x Z2", 999), ("Z1000/(2)", 999)],
)
def test_a_cap_error_is_raised_again_once_the_spec_is_built(text, cap):
    # the cap is checked on every call, the parts first: a quotient with a
    # base over the cap fails even once a larger cap has built it
    spec = parse_ring_spec(text)
    clear_caches()
    with pytest.raises(OrderCapError) as fresh:
        build_ring(spec, cap)
    build_ring(spec)
    with pytest.raises(OrderCapError) as rebuilt:
        build_ring(spec, cap)
    assert str(rebuilt.value) == str(fresh.value)
    assert rebuilt.value.spec == fresh.value.spec == spec


def test_a_built_spec_takes_one_cache_lookup(monkeypatch):
    # a spec within the cap is checked against its `order_bound` alone: a
    # second build asks the spec cache once, not once per part
    spec = parse_ring_spec("(Z12 x Z4/(2)) x (Z8 (+) Z4 x Z6)")
    first = build_ring(spec)
    lookups = []
    real = rings._build_cached

    def counted(s):
        lookups.append(s)
        return real(s)

    monkeypatch.setattr(rings, "_build_cached", counted)
    assert build_ring(spec) is first and build_ring(spec, spec.order_bound) is first
    assert lookups == [spec, spec]


@pytest.mark.parametrize(
    "text", ["Z12", "Z8 (+) Z4", "Z12 x Z4/(2)", "(Z12 x Z4/(2)) x (Z8 (+) Z4 x Z6)", "Z6/(0)"]
)
def test_order_bound_is_the_largest_order_among_the_parts(text):
    spec = parse_ring_spec(text)
    r = build_ring(spec)
    parts, orders = [r], []
    while parts:
        part = parts.pop()
        orders.append(part.order)
        parts += [p for p in (getattr(part, "left", None), getattr(part, "right", None),
                              getattr(part, "base", None)) if p is not None]
    assert spec.order_bound >= max(orders)
    if "/" not in text:
        assert spec.order_bound == r.order
    assert "order_bound" not in repr(spec) and spec == parse_ring_spec(text)


def test_a_quotient_base_over_the_cap_is_never_listed():
    # the bound of "Z1000/(2) x Z2" is 2000, over the cap of 1000, so its
    # parts are checked one by one: the base passes, and the product, of
    # order 4, is built; at a cap of 999 the base fails before it is walked
    clear_caches()
    assert build_ring(parse_ring_spec("Z1000/(2) x Z2"), 1000).order == 4
    clear_caches()
    with pytest.raises(OrderCapError, match="^Z1000 has order 1000, exceeding the cap 999"):
        build_ring(parse_ring_spec("Z1000/(2) x Z2"), 999)
    assert "elements" not in build_ring(CyclicZ(1000)).__dict__


@pytest.mark.parametrize("text", KIND_RINGS)
def test_index_of_matches_the_element_order(text):
    r = ring(text)
    assert [r.index_of(x) for x in r.elements] == list(range(r.order))
    with pytest.raises(ForeignElementError):
        r.index_of("x")


def test_index_of_is_closed_form_off_quotients():
    # literals of large rings are found without listing their elements
    for text, element, index in (
        ("Z1048576", 12345, 12345),
        ("Z512 x Z1024", (4, 3), 4 * 1024 + 3),
        ("Z1024 (+) Z512", (4, 2), 4 * 512 + 2),
        ("(Z4 (+) Z2) x Z8", ((3, 1), 5), (3 * 2 + 1) * 8 + 5),
    ):
        r = ring(text)
        assert r.index_of(element) == index and r.element_at(index) == element
        assert "elements" not in r.__dict__ and "_index" not in r.__dict__, text


@pytest.mark.parametrize("text", ["Z100000000000000000039", "Z100000000000000000039 (+) Z1"])
def test_order_cap_is_checked_before_the_modulus_is_factored(monkeypatch, text):
    # a 21-digit prime modulus: factoring it by trial division would not end
    def no_factoring(n):
        raise AssertionError(f"{n} factored at build time")

    monkeypatch.setattr(rings, "_factorize", no_factoring)
    with pytest.raises(OrderCapError, match="exceeding the cap 1048576"):
        build_ring(parse_ring_spec(text))


@pytest.mark.parametrize("text", KIND_RINGS)
def test_power_bound_is_where_principal_powers_settle(text):
    # x**L R == x**(L+1) R for L = power_bound, so the least k with
    # x**(k+1) dividing x**k, looked for up to order + 1, is at most L
    r = ring(text)
    bound = r.power_bound
    assert bound == r.order.bit_length()
    for x in r.elements:
        settled = brute_multiples(r, brute_power(r, x, bound))
        assert brute_multiples(r, brute_power(r, x, bound + 1)) == settled, x
        k = next(
            n for n in range(1, r.order + 2)
            if brute_divides(r, brute_power(r, x, n + 1), brute_power(r, x, n))
        )
        assert k <= bound and vnr_profile_element(r, x).k == k, x


def test_arithmetic_examples():
    assert ring("Z8").mul(2, 4) == 0
    # trivial extension product rule: (2,1)(2,3) = (4, 2*3 + 2*1 mod 4)
    assert ring("Z8 (+) Z4").mul((2, 1), (2, 3)) == (4, 0)
    assert ring("Z8 x Z4").add((7, 3), (1, 1)) == (0, 0)


def test_power_examples():
    assert power(ring("Z16"), 2, 3) == 8
    assert power(ring("Z8"), 2, 3) == 0
    for r in (ring("Z8"), ring("Z8 x Z4"), ring("Z8 (+) Z4")):
        for x in r.elements:
            assert r.power(x, 0) == r.one


def test_element_arithmetic_checks_membership():
    z8 = ring("Z8")
    assert element_arithmetic(z8, "add", 7, 1) == 0
    assert element_arithmetic(z8, "neg", 3) == 5
    with pytest.raises(ForeignElementError):
        element_arithmetic(z8, "mul", 2, 9)
    with pytest.raises(ForeignElementError):
        element_arithmetic(ring("Z8 x Z4"), "add", (1, 1), (1, 5))
    with pytest.raises(ValueError):
        element_arithmetic(z8, "add", 1)
    with pytest.raises(ValueError):
        power(z8, 2, -1)


def test_nilradical_examples():
    assert nilradical(ring("Z8")) == brute_nilpotents(ring("Z8")) == {0, 2, 4, 6}
    assert nilradical(ring("Z6")) == {0}
    z44 = ring("Z4 (+) Z4")
    expected = frozenset((a, b) for a in (0, 2) for b in range(4))
    assert nilradical(z44) == brute_nilpotents(z44) == expected


def test_units_and_zero_divisors_examples():
    z8 = ring("Z8")
    assert units(z8) == brute_units(z8) == {1, 3, 5, 7}
    assert zero_divisors(z8) == brute_zero_divisors(z8) == {2, 4, 6}
    assert zero_divisors(ring("Z5")) == frozenset()


def test_nilpotency_index_examples():
    assert nilpotency_index(ring("Z8"), 2) == 3
    assert nilpotency_index(ring("Z16"), 4) == 2
    assert nilpotency_index(ring("Z8"), 3) is None
    assert nilpotency_index(ring("Z8"), 0) == 1


def test_characteristic_examples():
    assert characteristic(ring("Z8")) == 8
    z2x3 = ring("Z2 x Z3")
    assert characteristic(z2x3) == brute_additive_order(z2x3, z2x3.one) == 6
    z4e2 = ring("Z4 (+) Z2")
    assert characteristic(z4e2) == brute_additive_order(z4e2, z4e2.one) == 4


@pytest.mark.parametrize(
    "text", ["Z12", "Z4 x Z4", "Z4 (+) Z2", "Z16/(4)", "Z2 x Z3 x Z2", "Z8 (+) Z2"]
)
def test_ring_axioms_exhaustive(text):
    exhaustive_ring_axioms(ring(text))


def test_ring_axioms_exhaustive_order_64():
    exhaustive_ring_axioms(ring("Z64"))
    exhaustive_ring_axioms(ring("Z8 x Z8"))


@settings(max_examples=40, deadline=None)
@given(small_rings)
def test_structure_sets_match_oracles(r):
    assert r.units == brute_units(r)
    assert r.nilpotents == brute_nilpotents(r)
    assert r.zero_divisors == brute_zero_divisors(r)


def _assert_divides_matches_definition(r):
    for a in r.elements:
        multiples = brute_multiples(r, a)
        for b in r.elements:
            assert r.divides(a, b) == (b in multiples), (r, a, b)


@pytest.mark.parametrize(
    "text",
    [
        "Z12",
        "Z27",
        "Z4 x Z6",
        "Z2 x Z9",
        "Z6 (+) Z3",
        "Z8 (+) Z2",
        "Z16 (+) Z8",
        "Z12 (+) Z6",
        "Z9 (+) Z3",
        "Z8 (+) Z1",
        "Z24/(4)",
        "(Z4 x Z2)/(2)",
    ],
)
def test_divides_matches_definition_on_every_kind(text):
    _assert_divides_matches_definition(ring(text))


@settings(max_examples=40, deadline=None)
@given(small_rings)
def test_divides_matches_definition(r):
    _assert_divides_matches_definition(r)


@pytest.mark.parametrize(
    "text, pairs",
    [
        (
            "Z8192",
            [(4096, 0), (4096, 2048), (6, 2), (6, 3), (2048, 6144), (8191, 1), (1024, 512), (0, 1)],
        ),
        # both factors above 1000: 1033216 elements in the brute-force scan
        ("Z1009 x Z1024", [((0, 8), (0, 4)), ((0, 1), (1, 0)), ((3, 6), (5, 2)), ((1008, 512), (1, 0))]),
        # a0 = 0: the principal ideal lies in 0 (+) Z4, whatever r0 is
        ("Z8192 (+) Z4", [((0, 2), (0, 2)), ((0, 2), (0, 1)), ((0, 3), (0, 1)), ((0, 2), (2, 0)), ((2, 1), (4, 3))]),
    ],
)
def test_divides_spot_pairs_on_large_rings(text, pairs):
    r = ring(text)
    answers = [r.divides(a, b) for a, b in pairs]
    assert answers == [brute_divides(r, a, b) for a, b in pairs]
    assert True in answers and False in answers


@settings(max_examples=40, deadline=None)
@given(small_rings)
def test_partition_units_zero_divisors_zero(r):
    pieces = r.units | r.zero_divisors | {r.zero}
    assert pieces == set(r.elements)
    assert not (r.units & r.zero_divisors)
    assert r.zero not in r.units
    assert r.zero not in r.zero_divisors
    assert r.zero in r.nilpotents
    assert r.nilpotents <= r.zero_divisors | {r.zero}


@settings(max_examples=40, deadline=None)
@given(small_rings)
def test_nilradical_is_an_ideal(r):
    nil = r.nilpotents
    for a in nil:
        for b in nil:
            assert r.add(a, b) in nil
    for a in nil:
        for x in r.elements:
            assert r.mul(x, a) in nil


@settings(max_examples=40, deadline=None)
@given(small_rings, st.integers(0, 12))
def test_power_matches_brute_force(r, t):
    for x in list(r.elements)[:: max(1, r.order // 8)]:
        assert r.power(x, t) == brute_power(r, x, t)


@settings(max_examples=40, deadline=None)
@given(small_rings)
def test_nilpotency_index_is_minimal(r):
    for x in r.elements:
        k = r.nilpotency_index(x)
        if k is None:
            assert x not in r.nilpotents
        else:
            assert brute_power(r, x, k) == r.zero
            assert k == 1 or brute_power(r, x, k - 1) != r.zero


def _assert_nilpotency_indices(r):
    # the least k <= order + 1 with x**k == 0, straight from the definition
    expected = {}
    for x in r.elements:
        xk = x
        for k in range(1, r.order + 2):
            if xk == r.zero:
                expected[x] = k
                break
            xk = r.mul(xk, x)
    assert list(r.nilpotency_indices.items()) == list(expected.items()), r
    assert frozenset(r.nilpotency_indices) == brute_nilpotents(r) == r.nilpotents, r
    assert all(r.nilpotency_index(x) == expected.get(x) for x in r.elements), r
    assert all(
        theorems._unbounded_nilpotency_index(r, x) == expected.get(x) for x in r.elements
    ), r
    assert r.units == brute_units(r) and r.zero_divisors == brute_zero_divisors(r), r


def _extension_quotient():
    # T-QUOT builds quotients of trivial extensions, which the grammar
    # cannot spell; (4, 2) identifies (4, 0) with (0, 2)
    base = ring("Z8 (+) Z4")
    return quotient_ring(base, ideal_from_generators(base, [(4, 2)]))


@pytest.mark.parametrize(
    "source",
    [
        "Z2", "Z64", "Z72", "Z2 x Z4", "Z8 x Z9", "(Z4 (+) Z2) x Z2", "Z8 (+) Z1",
        "Z8 (+) Z4", "Z12 (+) Z6", "Z16 (+) Z16", "Z24/(8)", "(Z4 x Z4)/(2)", "Z24/(8) x Z4",
        pytest.param(_extension_quotient, id="(Z8 (+) Z4)/((4, 2))"),
    ],
)
def test_nilpotency_indices_match_definition_on_every_kind(source):
    _assert_nilpotency_indices(source() if callable(source) else ring(source))


@settings(max_examples=40, deadline=None)
@given(small_rings)
def test_nilpotency_indices_match_definition(r):
    _assert_nilpotency_indices(r)


def test_zero_module_part_squares_to_zero():
    # (0, m1)(0, m2) == (0, 0) in every trivial extension
    for n, d in [(4, 2), (8, 4), (12, 6), (6, 6)]:
        r = build_ring(Idealization(n, d))
        for m1 in range(d):
            for m2 in range(d):
                assert r.mul((0, m1), (0, m2)) == (0, 0)


def test_quotient_canonicalization_idempotent():
    q = ring("Z16/(4)")
    for x in q.base.elements:
        rep = q.project(x)
        assert q.project(rep) == rep
    assert q.order == 4


def test_quotient_rejects_improper_ideal():
    with pytest.raises(SpecError, match="improper"):
        build_ring(Quotient(CyclicZ(8), (3,)))
    with pytest.raises(SpecError, match="out of range"):
        build_ring(Quotient(CyclicZ(8), (9,)))


def test_quotient_of_product():
    q = ring("(Z2 x Z2)/(1)")  # literal 1 is the element (0, 1)
    assert q.order == 2
    assert q.base.elements[1] == (0, 1)


def _assert_class_table(r):
    # a strictly increasing subsequence of `elements` that holds the least
    # member of every associate class and nothing else
    positions = [r.index_of(x) for x in r.representatives]
    assert positions == sorted(set(positions)), r
    assert brute_least_associates(r) == set(r.representatives), r


@pytest.mark.parametrize(
    "text",
    [
        "Z2", "Z12", "Z16", "Z30", "Z36",
        "Z2 x Z4", "Z4 x Z6", "Z8 x Z9", "(Z2 x Z4) x Z3", "(Z4 (+) Z2) x Z2",
        "Z4 (+) Z2", "Z8 (+) Z4", "Z12 (+) Z6", "Z9 (+) Z3", "Z8 (+) Z1", "Z16 (+) Z8",
        "Z24/(8)", "Z30/(6)", "(Z4 x Z4)/(2)", "(Z6 x Z4)/(3)", "Z24/(8) x Z4",
    ],
)
def test_representatives_hold_every_least_associate(text):
    _assert_class_table(ring(text))


@pytest.mark.parametrize("text", ["Z4 (+) Z2", "Z8 (+) Z4", "Z9 (+) Z3", "Z2 x Z4"])
def test_representatives_of_every_quotient(text):
    base = ring(text)
    for i in enumerate_ideals(base).proper:
        _assert_class_table(quotient_ring(base, i))


@settings(max_examples=40, deadline=None)
@given(small_rings)
def test_representatives_match_definition(r):
    _assert_class_table(r)


def test_build_is_cached():
    assert ring("Z8") is ring("Z8")
    assert ring("Z8") == build_ring(CyclicZ(8))


def test_large_ring_is_lazy_but_usable():
    r = build_ring(CyclicZ(2 ** 17))
    assert "units" not in r.__dict__  # nothing structural is computed at build time
    assert r.power(3, 5) == 243
    assert 3 in r.units  # computed on demand
    assert len(r.units) == 2 ** 16


@pytest.mark.parametrize("text", KIND_RINGS + ["Z2 (+) Z1", "Z6 (+) Z1 x Z3"])
def test_element_at_and_additive_generators_on_every_kind(text):
    r = ring(text)
    assert [r.element_at(i) for i in range(r.order)] == list(r.elements)


@pytest.mark.parametrize("text", KIND_RINGS)
def test_ideal_closure_matches_oracles_on_every_kind(text):
    # principal ideals against aR listed product by product, and every
    # two-generator ideal against the least ideal of the lattice oracle
    # that holds both generators
    r = ring(text)
    lattice = sorted(brute_ideal_lattice(r), key=len)
    for x in r.elements:
        assert ideal_from_generators(r, (x,)).elements == brute_multiples(r, x), x
    for x in r.elements:
        for y in r.representatives:
            least = next(i for i in lattice if x in i and y in i)
            assert ideal_from_generators(r, (x, y)).elements == least, (x, y)
    assert ideal_from_generators(r, ()).elements == frozenset({r.zero})


@pytest.mark.parametrize("text", KIND_RINGS)
def test_quotients_match_the_coset_scan(text):
    # every quotient by a proper ideal of the lattice oracle, against the
    # least member of each coset found by a scan of the base
    r = ring(text)
    for members in brute_ideal_lattice(r):
        if r.one in members:
            continue
        q = quotient_ring(r, ideal_from_elements(r, members))
        least = brute_quotient(r, members)
        reps = [x for x in r.elements if least[x] == x]
        assert q.elements == tuple(reps), members
        assert [q.project(x) for x in r.elements] == [least[x] for x in r.elements]
        assert [q.contains(x) for x in r.elements] == [least[x] == x for x in r.elements]
        assert (q.order, q.zero, q.one) == (len(reps), least[r.zero], least[r.one])
        for x in reps:
            assert q.neg(x) == least[r.neg(x)]
            assert [q.power(x, t) for t in range(4)] == [
                least[brute_power(r, x, t)] for t in range(4)
            ]
            # xR/J listed once per x, so that divisibility is checked on
            # every pair without a scan of R/J per pair
            multiples = brute_multiples(q, x)
            for y in reps:
                assert q.add(x, y) == least[r.add(x, y)], (members, x, y)
                assert q.mul(x, y) == least[r.mul(x, y)], (members, x, y)
                assert q.divides(x, y) == (y in multiples), (members, x, y)
        assert q.representatives == tuple(sorted(brute_least_associates(q), key=reps.index))


@pytest.mark.parametrize("text", KIND_RINGS + ["Z36/(12)"])
def test_class_entries_are_least_associates(text):
    # every element maps to the least element generating its principal
    # ideal; class-table entries read themselves.  Each table holds one
    # entry per principal ideal, on Z36/(12) too, where the base entries 3
    # and 9 become associates (9 = 3 * 3 and 3 = 9 * 7 mod 12)
    r = ring(text)
    least = {}
    for x in r.elements:
        least.setdefault(brute_multiples(r, x), x)
    for x in r.elements:
        entry = least[brute_multiples(r, x)]
        assert r.class_entry(x) == (x if x in r.representatives else entry), x
    assert len(r.representatives) == len(least)
    with pytest.raises(ForeignElementError):
        r.class_entry("x")


def _assert_one_entry_per_principal_ideal(r):
    # each entry generates a principal ideal no earlier entry does and is
    # the least of its associates, and units x table covers the ring: so
    # the table is the least member of every associate class, once
    principal, covered = set(), set()
    for e in r.representatives:
        multiples = brute_multiples(r, e)
        assert multiples not in principal, (r, e)
        principal.add(multiples)
        associates = {r.mul(u, e) for u in r.units}
        assert min(associates, key=r.index_of) == e, (r, e)
        covered |= associates
    assert covered == set(r.elements), r


def test_trivial_extension_tables_are_exact():
    # the orbit rule of `IdealizationRing.representatives` on every
    # Z_n (+) Z_d with n <= 40; for g = 0 it keeps (0, 0) and (0, e) for
    # each proper divisor e of d
    for n in range(2, 41):
        for d in (d for d in range(1, n + 1) if n % d == 0):
            r = build_ring(Idealization(n, d))
            _assert_one_entry_per_principal_ideal(r)
            zero_row = [m for g, m in r.representatives if g == 0]
            assert zero_row == [0] + [e for e in range(1, d) if d % e == 0], r


def test_quotient_tables_are_exact():
    # every quotient the tiny family's T-QUOT builds
    family = tiny_family()
    quotients = [
        quotient_ring(r, i)
        for r in theorems._family_rings(family, order_cap=family.quotient_order_cap)
        for i in theorems._proper_ideals(r)
    ]
    assert len(quotients) > 100
    for q in quotients:
        _assert_one_entry_per_principal_ideal(q)


def test_one_shot_queries_leave_large_rings_unlisted():
    # literals, principal ideals and a closedness check read no element tuple
    from closure_lab.cli import main

    for text, literal, element in (
        ("Z1024 (+) Z512", 2050, (4, 2)),
        ("Z512 x Z1024", 4099, (4, 3)),
    ):
        assert main(["check", "--ring", text, "--ideal", str(literal),
                     "--m", "3", "--n", "2", "--format", "machine"]) in (0, 2)
        r = ring(text)
        assert "elements" not in r.__dict__, text
        assert r.element_at(literal) == element
