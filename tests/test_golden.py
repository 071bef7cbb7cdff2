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
"""

from pathlib import Path

import pytest

from closure_lab.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
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
