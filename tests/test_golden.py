"""Machine output pinned byte for byte across versions.

Each fixture under `golden/` is the stdout of one CLI invocation with
`--format machine`, recorded before the refactor it guards: the
consolidation of the deciders and the theorem layer, and the move of
the regularity layer onto `FiniteRing.divides`.  Refactors must
reproduce them exactly; a fixture changes only together with an
intended change of output.  The two classify grids run on cyclic rings
of order 8192 and 6561; they were recorded while such rings took a
numpy branch of the closure scan, and now pin the scan over the ring's
class table (one entry per associate class, the divisors of N on Z_N).
The profile cases pin the regularity layer, which sweeps the same
tables, on every ring kind, cyclic rings of order 2048 and a product of
order 1152 among them.

The full-size runs are pinned by sha256 instead: verify on the pinned
family `perfbench/family.conf` at one and two workers, and the three
searches on the default family.  A change that alters them on purpose
updates the digest here and says why in CHANGES.md.
"""

import hashlib
from pathlib import Path

import pytest

from closure_lab.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
PINNED_FAMILY = str(Path(__file__).resolve().parents[1] / "perfbench" / "family.conf")
FAMILY = object()  # placeholder for the small family config path

CASES = {
    "verify_all": ("verify", "--theorems", "all", "--family", FAMILY, "--workers", "1"),
    "search_weak-not-closed-exists": ("search", "weak-not-closed-exists", "--family", FAMILY),
    "search_weak-not-monotone-in-m": ("search", "weak-not-monotone-in-m", "--family", FAMILY),
    "search_weakly-closed-not-weakly-radical": (
        "search", "weakly-closed-not-weakly-radical", "--family", FAMILY,
    ),
    "classify_z8192": ("classify", "--ring", "Z8192", "--ideal", "4096", "--m", "1..6", "--n", "1..5"),
    "classify_z6561": ("classify", "--ring", "Z6561", "--ideal", "729", "--m", "1..6", "--n", "1..5"),
    "profile_z2048": ("profile", "--ring", "Z2048"),
    "profile_z9xz128": ("profile", "--ring", "Z9 x Z128"),
    "profile_z12_ext_z6": ("profile", "--ring", "Z12 (+) Z6"),
    "profile_z64_mod8": ("profile", "--ring", "Z64/(8)"),
    "profile_z8_element2": ("profile", "--ring", "Z8", "--element", "2"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_machine_output_matches_golden(name, family_file, capsys):
    argv = [family_file if arg is FAMILY else arg for arg in CASES[name]]
    code = main([*argv, "--format", "machine"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")


VERIFY_DIGEST = "c9c8530d1b5a77b8aca0e84de2c5813a4b836099cb1b7a56debbecc06781c2f8"
DIGESTS = {
    "verify-workers-1": (
        ("verify", "--theorems", "all", "--family", PINNED_FAMILY, "--workers", "1"),
        VERIFY_DIGEST,
    ),
    "verify-workers-2": (
        ("verify", "--theorems", "all", "--family", PINNED_FAMILY, "--workers", "2"),
        VERIFY_DIGEST,
    ),
    "search-weak-not-closed-exists": (
        ("search", "weak-not-closed-exists", "--family", "default"),
        "efc8257a8e87b4efa61b187890f99eecef628269838aced5f3e7c788d8eecb1b",
    ),
    "search-weak-not-monotone-in-m": (
        ("search", "weak-not-monotone-in-m", "--family", "default"),
        "c987f46b933dbbb91d6889bd2cdb01e3689b0cd5a21fa1d3679d2146493cab60",
    ),
    "search-weakly-closed-not-weakly-radical": (
        ("search", "weakly-closed-not-weakly-radical", "--family", "default"),
        "94b4299f2ea157e7ba7ac2d92e12f1e30bbbbb2f14b85e7c8bd55e42c85d152e",
    ),
}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_full_size_machine_output_digest(name, capsys):
    argv, digest = DIGESTS[name]
    code = main([*argv, "--format", "machine"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
