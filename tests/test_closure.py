"""Closure-property deciders: worked examples plus invariant properties."""

import pickle
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from closure_lab import (
    AbsorbingBudgetError,
    CyclicZ,
    build_ring,
    characteristic,
    classify,
    enumerate_ideals,
    ideal_from_generators,
    image_ideal,
    intersect_ideals,
    is_mn_closed,
    is_n_absorbing,
    is_prime_ideal,
    is_weakly_mn_closed,
    is_weakly_prime,
    is_weakly_radical,
    load_family,
    nilradical,
    parse_ring_spec,
    quotient_ring,
    unbreakable_zero_elements,
)
from closure_lab import clear_caches, closure
from closure_lab.closure import (
    _absorbing_sweep,
    _shift_fails,
    _failure_scan,
    _nil_positions,
    _thresholds,
    power_chains,
    shift_triples,
    status_grid,
)

from _oracles import (
    brute_first_absorbing_failure,
    brute_first_failures,
    brute_first_weakly_prime_failure,
    brute_first_weakly_radical_failure,
    brute_ideal_lattice,
    brute_is_mn_closed,
    brute_is_n_absorbing,
    brute_is_prime,
    brute_is_weakly_mn_closed,
    brute_multiples,
    brute_power,
    brute_power_thresholds,
    brute_shift_triples,
    brute_unbreakable,
)
from _strategies import KIND_RINGS, small_rings


def ring(text):
    return build_ring(parse_ring_spec(text))


def ideal(text, *gens):
    r = ring(text)
    return ideal_from_generators(r, gens)


# Z8 with {0, 4}: weakly (3,1)-closed, not (3,1)-closed, not weakly (2,1)-closed
def test_z8_mod4_example():
    i = ideal("Z8", 4)
    assert i.members == (0, 4)
    assert is_weakly_mn_closed(i, 3, 1) == (True, None)
    assert is_mn_closed(i, 3, 1) == (False, 2)
    assert is_weakly_mn_closed(i, 2, 1) == (False, 2)


# Z16 with {0, 8}: weakly (2,1)-closed, not (2,1)-closed, not weakly radical
def test_z16_mod8_example():
    i = ideal("Z16", 8)
    assert i.members == (0, 8)
    assert is_weakly_mn_closed(i, 2, 1) == (True, None)
    ok, witness = is_mn_closed(i, 2, 1)
    assert not ok and witness in (4, 12)
    assert witness == 4  # first in canonical order
    assert is_weakly_radical(i) == (False, (2, 3))


def test_m_at_most_n_is_always_closed():
    for text, gens in [("Z8", (4,)), ("Z12", (6,)), ("Z9", ())]:
        i = ideal(text, *gens)
        for m in range(1, 5):
            for n in range(m, 6):
                assert is_mn_closed(i, m, n) == (True, None)


def test_unbreakable_zero_examples():
    z16 = ideal("Z16", 8)
    assert unbreakable_zero_elements(z16, 2, 1) == (4, 12)
    z8 = ideal("Z8", 4)
    assert unbreakable_zero_elements(z8, 3, 1) == (2, 6)
    closed = ideal("Z6", 3)
    assert unbreakable_zero_elements(closed, 2, 1) == ()


@pytest.mark.parametrize("text", KIND_RINGS)
def test_unbreakable_zeros_match_oracle_on_every_kind(text):
    # read off the per-ideal nilpotent table: a**n not in I iff n < tau(a)
    r = ring(text)
    for i in enumerate_ideals(r).proper:
        for m in range(1, 7):
            for n in range(1, 7):
                assert unbreakable_zero_elements(i, m, n) == brute_unbreakable(
                    r, i.elements, m, n
                ), (i, m, n)


def _signature(i, size):
    # what a status grid depends on, from the oracle's thresholds
    r = i.ring
    pairs = brute_power_thresholds(r, i.elements, r.representatives).values()
    taus = frozenset((tau, nu) for tau, nu in pairs if tau is not None and tau > 1)
    return taus, min(size, r.order.bit_length()), size


def test_equal_signatures_share_one_grid():
    # ideals with one signature get one grid object, and its every cell
    # is the status `classify` reports for each of them
    size = 6
    shared = 0
    for text in KIND_RINGS:
        by_signature = {}
        for i in enumerate_ideals(ring(text)).proper:
            grid = status_grid(i, size)
            by_signature.setdefault(_signature(i, size), []).append((i, grid))
            for m in range(1, size + 1):
                for n in range(1, size + 1):
                    assert grid[m][n] == classify(i, m, n).status, (i, m, n)
        for group in by_signature.values():
            assert len({id(grid) for _, grid in group}) == 1, [i for i, _ in group]
            shared += len(group) > 1
        grids = {id(grid) for group in by_signature.values() for _, grid in group}
        assert len(grids) == len(by_signature), text
    # distinct ideals with one signature occur on all but the chain rings
    assert shared >= len(KIND_RINGS) - 2


def test_classify_examples():
    rep = classify(ideal("Z8", 4), 3, 1)
    assert (rep.status, rep.witness) == ("weakly_only", 2)
    rep = classify(ideal("Z8", 4), 2, 1)
    assert (rep.status, rep.witness) == ("not_weakly", 2)
    rep = classify(ideal("Z6", 3), 2, 1)
    assert (rep.status, rep.witness) == ("closed", None)


def test_classify_record_field_names():
    record = classify(ideal("Z8", 4), 3, 1).to_record()
    assert record == {
        "ring_spec": "Z8",
        "ideal_gens": [4],
        "m": 3,
        "n": 1,
        "status": "weakly_only",
        "witness": 2,
    }
    record = classify(ideal("Z6", 3), 2, 1).to_record()
    assert "witness" not in record


def test_weakly_prime_examples():
    assert is_weakly_prime(ideal("Z5"))[0]
    ok, witness = is_weakly_prime(ideal("Z8", 4))
    assert not ok and witness == (2, 2)


def test_weakly_radical_vs_weakly_closed():
    # weakly (2,1)-closed does not imply weakly radical
    i = ideal("Z16", 8)
    assert is_weakly_mn_closed(i, 2, 1)[0]
    assert not is_weakly_radical(i)[0]


def test_improper_ideal_rejected():
    z8 = ring("Z8")
    improper = ideal_from_generators(z8, (1,))
    for fn in (
        lambda: classify(improper, 2, 1),
        lambda: is_mn_closed(improper, 2, 1),
        lambda: is_weakly_mn_closed(improper, 2, 1),
        lambda: is_weakly_prime(improper),
        lambda: is_weakly_radical(improper),
        lambda: is_n_absorbing(improper, 2),
        lambda: status_grid(improper, 3),
    ):
        with pytest.raises(ValueError):
            fn()
    with pytest.raises(ValueError):
        classify(ideal("Z8", 4), 0, 1)
    with pytest.raises(ValueError):
        status_grid(ideal("Z8", 4), 0)


def test_n_absorbing_examples():
    zero = ideal("Z8")
    assert is_n_absorbing(zero, 2, weak=True) == (True, None)
    ok, witness = is_n_absorbing(zero, 2, weak=False)
    assert not ok and witness == (2, 2, 2)


def test_n_absorbing_budget():
    with pytest.raises(AbsorbingBudgetError):
        is_n_absorbing(ideal("Z8"), 2, budget=100)


def test_a_budget_error_keeps_its_message_through_pickling():
    # the message is formatted on demand; a process pool pickles the error
    # by its arguments
    error = AbsorbingBudgetError(4096, 100)
    clone = pickle.loads(pickle.dumps(error))
    assert str(clone) == str(error) == "sweep of 4096 tuples exceeds budget 100"
    assert (clone.required, clone.budget) == (4096, 100)


def test_n_absorbing_budget_checked_after_a_remembered_answer():
    i = ideal("Z16", 8)
    for weak in (True, False):
        is_n_absorbing(i, 2, weak=weak, budget=262144)
        with pytest.raises(AbsorbingBudgetError):
            is_n_absorbing(i, 2, weak=weak, budget=1)


@pytest.fixture
def sweeps(monkeypatch):
    """Every n-absorbing sweep run from here on, as (n, weak), with every
    cache emptied first."""
    clear_caches()
    runs = []
    real = closure._absorbing_sweep

    def counted(ideal, n, weak):
        runs.append((n, weak))
        return real(ideal, n, weak)

    monkeypatch.setattr(closure, "_absorbing_sweep", counted)
    return runs


def test_n_absorbing_weak_and_plain_answers_kept_apart(sweeps):
    zero = ideal("Z8")
    assert is_n_absorbing(zero, 2, weak=True) == (True, None)
    assert is_n_absorbing(zero, 2, weak=False) == (False, (2, 2, 2))
    assert len(sweeps) == 2


def test_n_absorbing_sweep_runs_once_per_instance(sweeps):
    # n = 1 < Omega(|Z12 / (6)|) = 2, so the sweep runs, once
    i = ideal("Z12", 6)
    first = is_n_absorbing(i, 1, weak=True)
    assert is_n_absorbing(i, 1, weak=True) == first
    assert len(sweeps) == 1


def test_n_absorbing_sweep_runs_once_per_ideal_value(sweeps):
    # (6) and (6, 0) present one ideal of Z12: one sweep answers both
    r = ring("Z12")
    six = ideal_from_generators(r, (6,))
    first = is_n_absorbing(six, 1, weak=True)
    assert is_n_absorbing(ideal_from_generators(r, (6, 0)), 1, weak=True) == first
    assert len(sweeps) == 1


def _omega(k):
    # the number of prime factors of k, with multiplicity, by trial division
    count, p = 0, 2
    while k > 1:
        while k % p == 0:
            k //= p
            count += 1
        p += 1
    return count


@pytest.mark.parametrize("text", KIND_RINGS)
def test_n_absorbing_is_monotone_in_n(sweeps, text):
    # an ideal (weakly) absorbing at n - 1, or with n >= Omega(|R/I|), is
    # answered at n without a sweep; every answer is the sweep's, and the
    # brute force's on rings up to order 16 (the brute force takes minutes
    # on the larger ones)
    r = ring(text)
    skipped = bounded = 0
    for i in enumerate_ideals(r).proper:
        omega = _omega(r.order // len(i.elements))
        for weak in (True, False):
            below = ()
            for n in (1, 2, 3):
                before = len(sweeps)
                ok, witness = is_n_absorbing(i, n, weak=weak, budget=2 ** 32)
                assert len(sweeps) - before == (below is not None and n < omega)
                skipped += below is None
                bounded += below is not None and n >= omega
                expected = _absorbing_sweep(i, n, weak)
                if r.order <= 16:
                    assert expected == brute_first_absorbing_failure(r, i.elements, n, weak)
                if below is None or n >= omega:
                    assert expected is None
                assert (ok, witness) == (expected is None, expected), (i, n, weak)
                below = witness
    assert skipped > 0 and bounded > 0


@pytest.mark.parametrize("text", [t for t in KIND_RINGS if ring(t).order <= 16])
def test_an_ideal_is_absorbing_at_the_length_bound(text):
    # the bound `_absorbing_answer` reads: at n = Omega(|R/I|) no multiset
    # of the brute force fails, weak or plain
    r = ring(text)
    for i in enumerate_ideals(r).proper:
        n = _omega(r.order // len(i.elements))
        for weak in (True, False):
            assert brute_first_absorbing_failure(r, i.elements, n, weak) is None, (i, weak)


@pytest.mark.parametrize("text", KIND_RINGS)
def test_the_length_bound_is_at_least_the_longest_chain(text):
    # Omega(|R/I|) >= the length of the longest chain of ideals from I up
    # to R in the brute lattice: each step at least doubles the order
    r = ring(text)
    lattice = sorted(brute_ideal_lattice(r), key=len, reverse=True)
    longest = {}
    for i in lattice:
        longest[i] = max((1 + longest[j] for j in longest if i < j), default=0)
    assert max(longest.values()) > 0
    for i, length in longest.items():
        assert _omega(r.order // len(i)) >= length, (sorted(i), length)


PINNED_FAMILY = Path(__file__).resolve().parent.parent / "perfbench" / "family.conf"


def test_image_grids_match_the_quotient_path():
    # `image_grids` reads the grid of I/J off the tau bytes of I and J in R;
    # the quotient path builds R/J and the image ideal and asks its grid.
    # Every J <= I of KIND_RINGS and of the pinned family's rings up to
    # order 64, at size 6 and at L: one grid object, and None iff J is not
    # inside I
    specs = load_family(str(PINNED_FAMILY)).ring_specs
    rings = [build_ring(spec) for spec in specs] + [ring(text) for text in KIND_RINGS]
    rings = [r for r in rings if r.order <= 64 or r.spec_str in KIND_RINGS]
    images = 0
    for r in rings:
        ideals = enumerate_ideals(r).proper
        for size in (6, r.power_bound):
            grids = closure.image_grids(ideals, size)
            assert len(grids) == len(ideals) and {len(row) for row in grids} == {len(ideals)}
            for small, row in zip(ideals, grids):
                quotient = quotient_ring(r, small)
                for big, grid in zip(ideals, row):
                    if not small.elements <= big.elements:
                        assert grid is None, (r, small, big)
                        continue
                    expected = status_grid(image_ideal(quotient, big), size)
                    assert grid is expected, (r, small, big, size)
                    images += 1
    assert len(rings) > 100 and images > 2000


@pytest.mark.parametrize("text", KIND_RINGS)
def test_shift_triples_match_brute_unbreakable_zeros_and_cosets(text):
    # T-SHIFT's table: the triples are the brute ones, and a cell (m, n)
    # shows a failure iff some brute unbreakable zero a has a brute shift
    # a + i, i in I, with (a + i)**m != 0
    r = ring(text)
    for i in enumerate_ideals(r).proper:
        triples = shift_triples(i)
        assert triples == brute_shift_triples(r, i.elements), i
        for m in range(1, r.power_bound + 2):
            for n in range(1, m):
                shown = _shift_fails(triples, m, n)
                brute = any(
                    brute_power(r, r.add(a, j), m) != r.zero
                    for a in brute_unbreakable(r, i.elements, m, n)
                    for j in i.elements
                )
                assert shown == brute, (i, m, n)


@pytest.mark.parametrize(
    "text", ["Z8", "Z12", "Z16", "Z2 x Z4", "Z3 x Z4", "Z4 (+) Z2", "Z4 (+) Z4", "Z24/(8)", "(Z4 x Z4)/(2)"]
)
def test_n_absorbing_first_witness_matches_oracle(text):
    r = ring(text)
    verdicts = set()
    for i in enumerate_ideals(r).proper:
        for n in (1, 2, 3):
            for weak in (False, True):
                expected = brute_first_absorbing_failure(r, i.elements, n, weak)
                assert is_n_absorbing(i, n, weak=weak) == (expected is None, expected), (i, n, weak)
                verdicts.add(expected is None)
    assert verdicts == {True, False}


@settings(max_examples=30, deadline=None)
@given(small_rings, st.data())
def test_deciders_match_oracles(r, data):
    enum = enumerate_ideals(r)
    i = data.draw(st.sampled_from(enum.proper))
    m = data.draw(st.integers(1, 4))
    n = data.draw(st.integers(1, 4))
    assert is_mn_closed(i, m, n)[0] == brute_is_mn_closed(r, i.elements, m, n)
    assert is_weakly_mn_closed(i, m, n)[0] == brute_is_weakly_mn_closed(r, i.elements, m, n)
    assert unbreakable_zero_elements(i, m, n) == brute_unbreakable(r, i.elements, m, n)
    first, nonzero = brute_first_failures(r, i.elements, m, n)
    assert is_mn_closed(i, m, n)[1] == first
    assert is_weakly_mn_closed(i, m, n)[1] == nonzero
    rep = classify(i, m, n)
    assert (rep.status == "closed") == is_mn_closed(i, m, n)[0]
    assert (rep.status != "not_weakly") == is_weakly_mn_closed(i, m, n)[0]


def _assert_cyclic_matches_oracle(i, m, n):
    first, nonzero = brute_first_failures(i.ring, i.elements, m, n)
    assert _failure_scan(i, m, n) == (first, nonzero), (i.ring, i, m, n)
    rep = classify(i, m, n)
    if nonzero is not None:
        assert (rep.status, rep.witness) == ("not_weakly", nonzero)
    elif first is not None:
        assert (rep.status, rep.witness) == ("weakly_only", first)
    else:
        assert (rep.status, rep.witness) == ("closed", None)


def test_cyclic_scan_matches_oracle_on_every_small_instance():
    # on Z_N the class table is the divisors of N, one per valuation class
    for modulus in range(2, 129):
        r = build_ring(CyclicZ(modulus))
        for i in enumerate_ideals(r).proper:
            for m in range(1, 7):
                for n in range(1, 7):
                    _assert_cyclic_matches_oracle(i, m, n)


@pytest.mark.parametrize(
    "modulus, gens",
    [(8192, (4096, 512)), (6561, (729, 27)), (2000, (40, 1000, 0)), (900, (30, 450, 0))],
)
def test_cyclic_scan_matches_oracle_on_large_rings(modulus, gens):
    r = build_ring(CyclicZ(modulus))
    for g in gens:
        i = ideal_from_generators(r, [g])
        for m, n in ((3, 1), (2, 1), (5, 2), (4, 3)):
            _assert_cyclic_matches_oracle(i, m, n)


@pytest.mark.parametrize("text", KIND_RINGS)
def test_failure_scan_matches_oracle_on_every_kind(text):
    r = ring(text)
    for i in enumerate_ideals(r).proper:
        for m in range(1, 5):
            for n in range(1, 5):
                assert _failure_scan(i, m, n) == brute_first_failures(r, i.elements, m, n), (
                    i, m, n,
                )


@pytest.mark.parametrize("text", KIND_RINGS)
def test_pair_and_power_sweeps_match_oracles(text):
    r = ring(text)
    verdicts = set()
    for i in enumerate_ideals(r).proper:
        pair = brute_first_weakly_prime_failure(r, i.elements)
        assert is_weakly_prime(i) == (pair is None, pair), i
        prime = brute_is_prime(r, i.elements)
        assert is_prime_ideal(i) == prime, i
        radical = brute_first_weakly_radical_failure(r, i.elements)
        assert is_weakly_radical(i) == (radical is None, radical), i
        _assert_thresholds_match_oracle(i)
        verdicts.add((pair is None, prime, radical is None))
    assert {prime for _, prime, _ in verdicts} == {True, False}


def _assert_thresholds_match_oracle(i):
    r = i.ring
    taus, chains = _thresholds(i), power_chains(r)
    rows = [(x, tau or None, nu or None) for x, tau, nu in zip(chains.chains, taus, chains.nus)]
    assert [x for x, _, _ in rows] == list(r.representatives), i
    expected = brute_power_thresholds(r, i.elements, r.representatives)
    assert {x: (tau, nu) for x, tau, nu in rows} == expected, i
    # one byte of tau per entry, 0 for none
    assert type(taus) is bytes
    assert taus == bytes(tau or 0 for tau, _ in expected.values()), i


@pytest.mark.parametrize("text", KIND_RINGS + ["Z2 x Z2 x Z2", "Z65536", "Z2 x Z1009"])
def test_power_chains_match_brute_powers(text):
    # each entry's chain is x, x**2, ... up to the first t with x**(t+1) ==
    # x**t, or up to L; later powers up to L repeat its last one
    r = ring(text)
    bound = r.power_bound
    chains = power_chains(r)
    assert power_chains(r) is chains and list(chains.chains) == list(r.representatives)
    for (x, chain), nu in zip(chains.chains.items(), chains.nus):
        powers = [brute_power(r, x, t) for t in range(1, bound + 2)]
        k = next((t for t in range(1, bound) if powers[t] == powers[t - 1]), bound)
        assert chain == tuple(powers[:k]), x
        assert all(powers[t - 1] == chain[-1] for t in range(k, bound + 1)), x
        zero_at = next((t for t, y in enumerate(powers, 1) if y == r.zero), None)
        assert nu == (zero_at if zero_at is not None and zero_at <= bound else 0), x


@pytest.mark.parametrize("text", KIND_RINGS)
def test_nil_threshold_bytes_match_the_oracle(text):
    # a nilpotent a reads the tau byte at its class position, which is
    # tau(a) exactly when the entry there generates aR
    r = ring(text)
    positions = _nil_positions(r)
    assert type(positions) is tuple and _nil_positions(r) is positions
    assert len(positions) == len(r.nilpotency_indices)
    for a, j in zip(r.nilpotency_indices, positions):
        assert brute_multiples(r, r.representatives[j]) == brute_multiples(r, a), a
    for i in enumerate_ideals(r).proper:
        taus = _thresholds(i)
        expected = brute_power_thresholds(r, i.elements, list(r.nilpotency_indices))
        assert bytes(taus[j] for j in positions) == bytes(t for t, _ in expected.values()), i


def test_a_threshold_table_is_kept_and_iterates_again():
    i = ideal("Z12 (+) Z6", (2, 1))
    rows = _thresholds(i)
    assert type(rows) is bytes
    assert _thresholds(i) is rows and list(rows) == list(rows) != []
    # equal ideals share the table; another ideal's table is unequal
    assert _thresholds(ideal("Z12 (+) Z6", (2, 3))) is rows
    assert _thresholds(ideal("Z12 (+) Z6", (4, 0))) != rows != list(rows)



@pytest.mark.parametrize("text", KIND_RINGS + ["Z2", "Z3", "Z2 x Z2"])
def test_status_grid_matches_oracle_past_the_length_bound(text):
    # every 1 <= m, n <= L + 3 with L = order.bit_length(), so the cells
    # past L, which repeat the last computed ones, are checked too
    r = ring(text)
    size = r.order.bit_length() + 3
    for i in enumerate_ideals(r).proper:
        grid = status_grid(i, size)
        assert len(grid) == size + 1 and {len(row) for row in grid} == {size + 1}, i
        assert set(grid[0]) == {None} and {row[0] for row in grid} == {None}, i
        for m in range(1, size + 1):
            for n in range(1, size + 1):
                if brute_is_mn_closed(r, i.elements, m, n):
                    expected = "closed"
                elif brute_is_weakly_mn_closed(r, i.elements, m, n):
                    expected = "weakly_only"
                else:
                    expected = "not_weakly"
                assert grid[m][n] == expected, (i, m, n)

@pytest.mark.parametrize(
    "text, gens",
    [("Z65536", ()), ("Z65536", (1024,)), ("Z2 x Z1009", None), ("Z16 (+) Z16", None)],
)
def test_thresholds_match_oracle_beyond_the_length_bound(text, gens):
    # the oracle looks up to t = order + 1; nu(2) = 16 = L - 1 on Z65536,
    # units of Z1009 cycle with periods up to 1008, and gens None means
    # every proper ideal
    r = ring(text)
    ideals = enumerate_ideals(r).proper if gens is None else [ideal_from_generators(r, gens)]
    for i in ideals:
        _assert_thresholds_match_oracle(i)


def test_principal_powers_stabilize_from_the_length_bound():
    # the lemma behind `_thresholds`: x**t R == x**L R for every t >= L =
    # order.bit_length(), checked up to t = order + 1 on every ring of the
    # pinned family and of KIND_RINGS up to order 64
    specs = load_family(str(PINNED_FAMILY)).ring_specs
    rings = [build_ring(spec) for spec in specs] + [ring(text) for text in KIND_RINGS]
    rings = [r for r in rings if r.order <= 64]
    assert len(rings) > 100
    for r in rings:
        principal = {}

        def multiples(a):
            if a not in principal:
                principal[a] = brute_multiples(r, a)
            return principal[a]

        bound = r.order.bit_length()
        for x in r.elements:
            xt = brute_power(r, x, bound)
            target = multiples(xt)
            for t in range(bound + 1, r.order + 2):
                xt = r.mul(xt, x)
                assert multiples(xt) == target, (r, x, t)


@pytest.mark.parametrize(
    "text, gens, expected",
    [("Z65536", (1024,), (2, 10)), ("Z12288", (768,), (6, 8)), ("Z65536", (), None)],
)
def test_weakly_radical_on_large_cyclic_rings(text, gens, expected):
    # long power chains: units cycle, non-units reach zero
    r = ring(text)
    i = ideal_from_generators(r, gens)
    # the zero ideal holds nothing nonzero, so it is weakly radical by
    # definition; the oracle's full scan of Z65536 would take too long
    if gens:
        assert brute_first_weakly_radical_failure(r, i.elements) == expected
    assert is_weakly_radical(i) == (expected is None, expected)


@settings(max_examples=15, deadline=None)
@given(small_rings, st.data())
def test_weak_n_absorbing_implies_weakly_closed(r, data):
    if r.order > 12:
        r = build_ring(CyclicZ(r.order % 11 + 2))
    enum = enumerate_ideals(r)
    i = data.draw(st.sampled_from(enum.proper))
    n = data.draw(st.integers(1, 2))
    if brute_is_n_absorbing(r, i.elements, n, weak=True):
        assert is_n_absorbing(i, n, weak=True)[0]
        assert is_weakly_mn_closed(i, n + 1, n)[0]
        for m in range(1, 5):
            assert is_weakly_mn_closed(i, m, n)[0]
    else:
        assert not is_n_absorbing(i, n, weak=True)[0]


@settings(max_examples=30, deadline=None)
@given(small_rings, st.data())
def test_closed_implies_weakly_and_monotone(r, data):
    enum = enumerate_ideals(r)
    i = data.draw(st.sampled_from(enum.proper))
    m = data.draw(st.integers(1, 5))
    n = data.draw(st.integers(1, 4))
    if is_mn_closed(i, m, n)[0]:
        assert is_weakly_mn_closed(i, m, n)[0]
    if is_weakly_mn_closed(i, m, n)[0]:
        for bigger in range(n, 6):
            assert is_weakly_mn_closed(i, m, bigger)[0]


@settings(max_examples=30, deadline=None)
@given(small_rings, st.data())
def test_intersection_of_weakly_closed_is_weakly_closed(r, data):
    enum = enumerate_ideals(r)
    a = data.draw(st.sampled_from(enum.proper))
    b = data.draw(st.sampled_from(enum.proper))
    m = data.draw(st.integers(2, 5))
    n = data.draw(st.integers(1, m - 1))
    if is_weakly_mn_closed(a, m, n)[0] and is_weakly_mn_closed(b, m, n)[0]:
        assert is_weakly_mn_closed(intersect_ideals(a, b), m, n)[0]


@settings(max_examples=30, deadline=None)
@given(small_rings, st.data())
def test_unbreakable_shift_and_nil_containment(r, data):
    enum = enumerate_ideals(r)
    i = data.draw(st.sampled_from(enum.proper))
    m = data.draw(st.integers(2, 5))
    n = data.draw(st.integers(1, m - 1))
    rep = classify(i, m, n)
    if rep.status != "weakly_only":
        return
    witnesses = unbreakable_zero_elements(i, m, n)
    assert witnesses
    # shifting an unbreakable-zero element by the ideal keeps m-th powers zero
    for a in witnesses:
        for j in i.members:
            assert r.power(r.add(a, j), m) == r.zero
    # the ideal itself sits inside the nilradical
    assert i.elements <= nilradical(r)
    # with prime characteristic m, every member has vanishing m-th power
    if characteristic(r) == m and m in (2, 3, 5):
        for j in i.members:
            assert r.power(j, m) == r.zero


@settings(max_examples=25, deadline=None)
@given(small_rings, st.data())
def test_weak_closedness_passes_to_quotients(r, data):
    enum = enumerate_ideals(r)
    big = data.draw(st.sampled_from(enum.proper))
    small_candidates = [j for j in enum.proper if j.elements <= big.elements]
    small = data.draw(st.sampled_from(small_candidates))
    m = data.draw(st.integers(2, 4))
    n = data.draw(st.integers(1, m - 1))
    if not is_weakly_mn_closed(big, m, n)[0]:
        return
    q = quotient_ring(r, small)
    assert is_weakly_mn_closed(image_ideal(q, big), m, n)[0]


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([6, 10, 15, 30, 42, 105, 210]), st.data())
def test_reduced_rings_collapse_weak_and_plain(squarefree, data):
    r = build_ring(CyclicZ(squarefree))
    i = data.draw(st.sampled_from(enumerate_ideals(r).proper))
    m = data.draw(st.integers(1, 5))
    n = data.draw(st.integers(1, 5))
    assert is_mn_closed(i, m, n)[0] == is_weakly_mn_closed(i, m, n)[0]
