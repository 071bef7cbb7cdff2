"""Family construction and config-file parsing."""

import pickle

import pytest

from closure_lab import format_ring_spec
from closure_lab.families import (
    FamilyConfigError,
    default_family,
    load_family,
    make_family,
    parse_family_config,
    with_max_order,
)


def test_default_family_contents():
    family = default_family()
    specs = {format_ring_spec(s) for s in family.ring_specs}
    assert "Z64" in specs and "Z2" in specs
    assert "Z16 x Z16" in specs and "Z2 x Z3" in specs
    assert "Z16 (+) Z16" in specs and "Z8 (+) Z1" in specs
    assert (2, 13) in family.principal_cases
    assert (3, 12) in family.principal_cases
    # 3**13 would blow the order cap, so it is excluded
    assert (3, 13) not in family.principal_cases
    assert family.mn_pairs == tuple((m, n) for m in range(2, 7) for n in range(1, m))
    assert all(m <= n for m, n in family.spot_pairs)
    assert family.n_values == (1, 2, 3, 4, 5)


def test_parse_family_config_round_trip():
    family = parse_family_config(
        """
        # comment
        cyclic_moduli = 4, 8
        product_moduli = 2, 3
        idealization_max = 4
        principal_primes = 2
        principal_max_exponent = 5
        m_max = 3
        extra_rings = Z8 (+) Z2, (Z4 x Z4)/(5, 6)
        grid_order_cap = 8
        absorbing_budget = 4096
        """
    )
    specs = [format_ring_spec(s) for s in family.ring_specs]
    assert specs[:2] == ["Z4", "Z8"]
    assert "(Z4 x Z4)/(5, 6)" in specs
    assert family.principal_cases == ((2, 2), (2, 3), (2, 4), (2, 5))
    assert family.grid_order_cap == 8
    assert family.absorbing_budget == 4096


def test_extra_rings_take_blank_items_a_trailing_comma_and_quotient_lists():
    def extra(value):
        family = parse_family_config(
            f"cyclic_moduli = 4\nproduct_moduli =\nidealization_max = 1\nextra_rings = {value}\n"
        )
        return [format_ring_spec(s) for s in family.ring_specs[1:]]

    assert extra("Z6, , (Z4 x Z4)/(5, 6), Z8/(2),,") == ["Z6", "(Z4 x Z4)/(5, 6)", "Z8/(2)"]
    assert extra("") == extra(",") == extra(" , ") == []
    for bad in ("Z6 Z8", "Z6, (Z4 x Z4)/(5,", "Z6, Z1", "Z6)"):
        with pytest.raises(FamilyConfigError, match="^line 2: "):
            parse_family_config(f"cyclic_max = 4\nextra_rings = {bad}\n")


def test_cyclic_max_shorthand():
    family = parse_family_config("cyclic_max = 6\nm_max = 2\n")
    moduli = [s.modulus for s in family.ring_specs if hasattr(s, "modulus")]
    assert moduli[:5] == [2, 3, 4, 5, 6]


def test_config_errors():
    with pytest.raises(FamilyConfigError, match="unknown key"):
        parse_family_config("nope = 1")
    with pytest.raises(FamilyConfigError, match="key = value"):
        parse_family_config("just some words")
    with pytest.raises(FamilyConfigError):
        parse_family_config("m_max = banana")


def test_non_prime_principal_primes_rejected():
    # T-PRINCIPAL's exponent arithmetic only holds for Z_(p**c) with p prime
    for bad in (4, 1, 0, 9):
        with pytest.raises(ValueError, match=f"principal_primes must be primes, got {bad}"):
            make_family(principal_primes=(2, bad))
        with pytest.raises(ValueError, match=f"got {bad}"):
            parse_family_config(f"cyclic_max = 4\nprincipal_primes = 3, {bad}\n")
    assert make_family(principal_primes=(5,), principal_max_exponent=3).principal_cases == (
        (5, 2), (5, 3),
    )


def test_grid_max_below_one_rejected():
    # with no cell to walk, every element walk would count a substantive instance
    for bad in (0, -1):
        with pytest.raises(ValueError, match=f"grid_max must be at least 1, got {bad}"):
            make_family(grid_max=bad)
        with pytest.raises(ValueError, match=f"grid_max must be at least 1, got {bad}"):
            parse_family_config(f"cyclic_max = 8\ngrid_max = {bad}\n")
    assert make_family(grid_max=1).grid_max == 1


def test_load_family_default_and_file(tmp_path):
    assert load_family("default") == default_family()
    path = tmp_path / "f.family"
    path.write_text("cyclic_max = 4\nm_max = 2\n", encoding="utf-8")
    family = load_family(str(path))
    assert len(family.mn_pairs) == 1


def test_with_max_order_prunes_principal_cases():
    family = with_max_order(default_family(), 2 ** 10)
    assert family.max_order == 2 ** 10
    assert all(p ** c <= 2 ** 10 for p, c in family.principal_cases)
    assert (2, 10) in family.principal_cases
    assert (2, 11) not in family.principal_cases


def test_max_exponent_covers_every_exponent_a_checker_asks_for():
    # grid_max, every exponent of the pairs, and n + 1 for T-BASIC-1
    assert default_family().max_exponent == 6
    assert make_family(m_max=8, spot_pairs=()).max_exponent == 8
    assert make_family(m_max=3, spot_pairs=((2, 9),)).max_exponent == 9
    assert make_family(m_max=3, spot_pairs=(), grid_max=2).max_exponent == 3
    family = make_family(m_max=2, spot_pairs=(), grid_max=2).replace(mn_pairs=((1, 4),))
    assert family.max_exponent == 5


def test_replace_and_pickle_recompute_nothing_stale():
    # all_pairs, n_values and max_exponent are computed once per instance
    base = make_family(m_max=2, spot_pairs=(), grid_max=2)
    assert (base.all_pairs, base.n_values, base.max_exponent) == (((2, 1),), (1,), 2)
    family = base.replace(mn_pairs=((1, 4),))
    assert (family.all_pairs, family.n_values, family.max_exponent) == (((1, 4),), (4,), 5)
    copy = pickle.loads(pickle.dumps(family))
    assert copy == family
    assert (copy.all_pairs, copy.n_values, copy.max_exponent) == (((1, 4),), (4,), 5)
