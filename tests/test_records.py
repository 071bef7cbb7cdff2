"""Value semantics of the frozen records: constructors, equality, hash,
repr, immutability and pickling, for the four spec kinds and the five
result and configuration records."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from closure_lab import (
    ClosednessReport,
    CyclicZ,
    IdealEnumeration,
    Idealization,
    InstanceFamily,
    Product,
    Quotient,
    RingSpec,
    TheoremVerdict,
    VnrProfile,
    build_ring,
    classify,
    enumerate_ideals,
    ideal_from_generators,
    parse_ring_spec,
)

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _records():
    """One record of each class, built from keywords, and the same record
    built positionally (with defaults where the class has them)."""
    z8 = build_ring(CyclicZ(8))
    ideal = ideal_from_generators(z8, (4,))
    return [
        (CyclicZ(modulus=8), CyclicZ(8)),
        (
            Product(left=CyclicZ(2), right=Idealization(4, 2)),
            Product(CyclicZ(2), Idealization(4, 2)),
        ),
        (Idealization(base_modulus=8, module_modulus=4), Idealization(8, 4)),
        (
            Quotient(base=Product(CyclicZ(4), CyclicZ(4)), generators=[5]),
            Quotient(Product(CyclicZ(4), CyclicZ(4)), (5,)),
        ),
        (Quotient(base=CyclicZ(8)), Quotient(CyclicZ(8), ())),
        (
            InstanceFamily(
                ring_specs=(CyclicZ(4),),
                principal_cases=((2, 2),),
                mn_pairs=((2, 1),),
                spot_pairs=((1, 1),),
                grid_max=6,
                grid_order_cap=32,
                quotient_order_cap=64,
                spr_order_cap=32,
                absorbing_budget=2 ** 18,
                max_order=2 ** 20,
            ),
            InstanceFamily((CyclicZ(4),), ((2, 2),), ((2, 1),), ((1, 1),)),
        ),
        (IdealEnumeration(ideals=enumerate_ideals(z8).ideals), enumerate_ideals(z8)),
        (VnrProfile(k=3), VnrProfile(3)),
        (VnrProfile(k=None), VnrProfile(None)),
        (
            ClosednessReport(ideal=ideal, m=3, n=1, status="weakly_only", witness=2),
            classify(ideal, 3, 1),
        ),
        (ClosednessReport(ideal=ideal, m=1, n=1, status="closed"), classify(ideal, 1, 1)),
        (
            TheoremVerdict(
                theorem_id="T-NIL",
                instances_checked=3,
                vacuous_count=1,
                status="fail",
                counterexample={"ring": "Z8"},
            ),
            TheoremVerdict("T-NIL", 3, 1, "fail", {"ring": "Z8"}),
        ),
        (
            TheoremVerdict(theorem_id="T-BK", instances_checked=7, vacuous_count=0, status="pass"),
            TheoremVerdict("T-BK", 7, 0, "pass"),
        ),
    ]


# the reprs of `_records()` as the dataclass-generated ``__repr__`` printed them
REPRS = [
    "CyclicZ(modulus=8)",
    "Product(left=CyclicZ(modulus=2), right=Idealization(base_modulus=4, module_modulus=2))",
    "Idealization(base_modulus=8, module_modulus=4)",
    "Quotient(base=Product(left=CyclicZ(modulus=4), right=CyclicZ(modulus=4)), generators=(5,))",
    "Quotient(base=CyclicZ(modulus=8), generators=())",
    "InstanceFamily(ring_specs=(CyclicZ(modulus=4),), principal_cases=((2, 2),), mn_pairs=((2, 1),),"
    " spot_pairs=((1, 1),), grid_max=6, grid_order_cap=32, quotient_order_cap=64, spr_order_cap=32,"
    " absorbing_budget=262144, max_order=1048576)",
    "IdealEnumeration(ideals=({0}, {0, 4}, {0, 2, 4, 6}, {0, 1, 2, 3, 4, 5, 6, 7}))",
    "VnrProfile(k=3)",
    "VnrProfile(k=None)",
    "ClosednessReport(ideal={0, 4}, m=3, n=1, status='weakly_only', witness=2)",
    "ClosednessReport(ideal={0, 4}, m=1, n=1, status='closed', witness=None)",
    "TheoremVerdict(theorem_id='T-NIL', instances_checked=3, vacuous_count=1, status='fail',"
    " counterexample={'ring': 'Z8'})",
    "TheoremVerdict(theorem_id='T-BK', instances_checked=7, vacuous_count=0, status='pass',"
    " counterexample=None)",
]


def _hashable(record) -> bool:
    return not (isinstance(record, TheoremVerdict) and record.counterexample is not None)


def test_keyword_and_positional_constructors_agree():
    for by_keyword, by_position in _records():
        assert by_keyword == by_position and not by_keyword != by_position
        assert by_keyword is not by_position
        if _hashable(by_keyword):
            assert hash(by_keyword) == hash(by_position)


def test_reprs_are_the_dataclass_reprs():
    assert [repr(by_keyword) for by_keyword, _ in _records()] == REPRS
    assert [repr(by_position) for _, by_position in _records()] == REPRS


def test_records_of_different_fields_or_classes_differ():
    records = [by_keyword for by_keyword, _ in _records()]
    for i, first in enumerate(records):
        for second in records[i + 1:]:
            assert first != second and not first == second
    # specs of different kinds are never equal, whatever their fields
    assert CyclicZ(4) != Quotient(CyclicZ(4)) != Product(CyclicZ(4), CyclicZ(4))
    assert Idealization(4, 1) != CyclicZ(4) and VnrProfile(4) != CyclicZ(4)
    assert CyclicZ(4) != (4,) and VnrProfile(None) != (None,)


def test_hash_is_the_hash_of_the_fields():
    # the hash of a spec depends on its integer fields alone, so it is the
    # same in every process, as rings pickled with their spec's hash need
    for record, _ in _records():
        if _hashable(record):
            fields = tuple(getattr(record, name) for name in record._fields)
            assert hash(record) == hash(fields)
    with pytest.raises(TypeError):
        hash(TheoremVerdict("T-NIL", 3, 1, "fail", {"ring": "Z8"}))
    assert len({CyclicZ(8), parse_ring_spec("Z8"), CyclicZ(9)}) == 2


def test_order_bound_is_neither_compared_nor_printed():
    spec = Quotient(Product(CyclicZ(4), CyclicZ(8)), (5,))
    assert spec.order_bound == 32
    assert "order_bound" not in repr(spec) and "_hash" not in repr(spec)


def test_assignment_and_deletion_raise_attribute_error():
    for record, _ in _records():
        for name in (*record._fields, "order_bound", "unknown"):
            with pytest.raises(AttributeError):
                setattr(record, name, 1)
            with pytest.raises(AttributeError):
                delattr(record, name)


def test_cached_properties_still_compute_once():
    family, _ = _records()[5]
    assert family.all_pairs is family.all_pairs == ((2, 1), (1, 1))
    lattice = enumerate_ideals(build_ring(CyclicZ(8)))
    assert lattice.proper is lattice.proper and len(lattice.proper) == 3


def test_replace_changes_only_the_named_fields():
    family, _ = _records()[5]
    narrow = family.replace(mn_pairs=((3, 1),), max_order=64)
    assert narrow == InstanceFamily((CyclicZ(4),), ((2, 2),), ((3, 1),), ((1, 1),), max_order=64)
    assert narrow.all_pairs == ((3, 1), (1, 1)) and family.mn_pairs == ((2, 1),)
    assert Quotient(CyclicZ(8), (4,)).replace(generators=[2]) == Quotient(CyclicZ(8), (2,))
    with pytest.raises(TypeError):
        family.replace(no_such_field=1)


def test_pickle_round_trip():
    for record, _ in _records():
        copy = pickle.loads(pickle.dumps(record))
        assert copy == record and repr(copy) == repr(record) and type(copy) is type(record)
        if _hashable(record):
            assert hash(copy) == hash(record)
        if isinstance(record, RingSpec):
            assert copy.order_bound == record.order_bound


def test_a_spec_pickled_under_one_hash_seed_loads_under_another():
    text = "(Z8 x Z4)/(5, 6)"
    dump = "import pickle, sys\nfrom closure_lab import parse_ring_spec\n"
    dump += f"sys.stdout.write(pickle.dumps(parse_ring_spec({text!r})).hex())\n"
    load = (
        "import pickle, sys\nfrom closure_lab import parse_ring_spec\n"
        "copy = pickle.loads(bytes.fromhex(sys.stdin.read()))\n"
        f"fresh = parse_ring_spec({text!r})\n"
        "print(copy == fresh, hash(copy) == hash(fresh), copy.order_bound == fresh.order_bound)\n"
    )
    env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    dumped = subprocess.run(
        [sys.executable, "-c", dump], capture_output=True, text=True, check=True,
        env={**env, "PYTHONHASHSEED": "1"},
    )
    loaded = subprocess.run(
        [sys.executable, "-c", load], input=dumped.stdout, capture_output=True, text=True,
        check=True, env={**env, "PYTHONHASHSEED": "2"},
    )
    assert loaded.stdout == "True True True\n"
