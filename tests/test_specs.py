"""Parser and printer for the ring-spec grammar."""

import pytest
from hypothesis import given

from closure_lab import (
    CyclicZ,
    Idealization,
    Product,
    Quotient,
    SpecError,
    SpecSyntaxError,
    format_ring_spec,
    parse_ring_spec,
    parse_ring_with_ideal,
)

from _strategies import ring_specs


def test_parse_cyclic():
    assert parse_ring_spec("Z8") == CyclicZ(8)


def test_parse_product():
    assert parse_ring_spec("Z8 x Z4") == Product(CyclicZ(8), CyclicZ(4))


def test_parse_idealization():
    assert parse_ring_spec("Z8 (+) Z4") == Idealization(8, 4)


def test_parse_quotient():
    assert parse_ring_spec("Z16/(8)") == Quotient(CyclicZ(16), (8,))
    assert parse_ring_spec("(Z4 x Z4)/(5)") == Quotient(Product(CyclicZ(4), CyclicZ(4)), (5,))
    assert parse_ring_spec("Z8/(4, 6)") == Quotient(CyclicZ(8), (4, 6))


def test_product_is_right_associative():
    assert parse_ring_spec("Z2 x Z3 x Z4") == Product(
        CyclicZ(2), Product(CyclicZ(3), CyclicZ(4))
    )
    assert parse_ring_spec("(Z2 x Z3) x Z4") == Product(
        Product(CyclicZ(2), CyclicZ(3)), CyclicZ(4)
    )


def test_whitespace_insignificant():
    assert parse_ring_spec("Z8xZ4") == parse_ring_spec("  Z8   x   Z4 ")
    assert parse_ring_spec("Z8(+)Z4") == Idealization(8, 4)


def test_idealization_divisibility_error():
    with pytest.raises(SpecError, match="3 does not divide 8"):
        parse_ring_spec("Z8 (+) Z3")


def test_modulus_error():
    with pytest.raises(SpecError, match="modulus < 2"):
        parse_ring_spec("Z1")
    with pytest.raises(SpecError, match="modulus < 2"):
        CyclicZ(0)


def test_syntax_error_carries_position():
    with pytest.raises(SpecSyntaxError) as err:
        parse_ring_spec("Z8 & Z4")
    assert err.value.position == 3
    with pytest.raises(SpecSyntaxError) as err:
        parse_ring_spec("Z8 x")
    assert "expected" in str(err.value)


def test_nesting_depth_is_capped_at_a_syntax_error():
    # 101 factors nest 100 deep, the limit; one more factor or one more
    # pair of parentheses passes it, at the position where it does
    deepest = " x ".join(["Z2"] * 101)
    assert format_ring_spec(parse_ring_spec(deepest)) == deepest
    for text in (deepest + " x Z2", f"({deepest})"):
        with pytest.raises(SpecSyntaxError, match="nested deeper than 100") as err:
            parse_ring_spec(text)
        assert text[err.value.position] == "Z"


def test_quotient_only_after_cyclic_or_product():
    with pytest.raises(SpecSyntaxError):
        parse_ring_spec("(Z8 (+) Z4)/(3)")
    with pytest.raises(SpecSyntaxError):
        parse_ring_spec("Z16/(8)/(4)")


def test_trailing_input_rejected():
    with pytest.raises(SpecSyntaxError):
        parse_ring_spec("Z8 Z4")


def test_ideal_literal_clause():
    spec, gens = parse_ring_with_ideal("Z8 ideal(gens = 4, 6)")
    assert spec == CyclicZ(8)
    assert gens == (4, 6)
    spec, gens = parse_ring_with_ideal("Z8")
    assert gens == ()


def test_printer_examples():
    assert format_ring_spec(Product(CyclicZ(8), CyclicZ(4))) == "Z8 x Z4"
    assert format_ring_spec(Quotient(Product(CyclicZ(4), CyclicZ(4)), (5,))) == "(Z4 x Z4)/(5)"
    assert format_ring_spec(Product(Idealization(8, 4), CyclicZ(2))) == "Z8 (+) Z4 x Z2"


@given(ring_specs)
def test_print_parse_round_trip(spec):
    assert parse_ring_spec(format_ring_spec(spec)) == spec
