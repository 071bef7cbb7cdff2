"""Command-line interface: output formats, exit codes, determinism."""

import json
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from closure_lab import THEOREM_IDS
from closure_lab.cli import BROKEN_PIPE_EXIT, main

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_weakly_only_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "check", "--ring", "Z8", "--ideal", "4", "--m", "3", "--n", "1")
    assert code == 0
    assert "status: weakly_only" in out
    assert "witness: 2" in out


def test_check_not_weakly_exits_two(capsys):
    code, out, _ = run_cli(capsys, "check", "--ring", "Z8", "--ideal", "4", "--m", "2", "--n", "1")
    assert code == 2
    assert "status: not_weakly" in out


def test_check_machine_record(capsys):
    code, out, _ = run_cli(
        capsys, "check", "--ring", "Z8", "--ideal", "4", "--m", "3", "--n", "1",
        "--format", "machine",
    )
    assert code == 0
    record = json.loads(out.strip())
    assert record == {
        "ring_spec": "Z8", "ideal_gens": [4], "m": 3, "n": 1,
        "status": "weakly_only", "witness": 2,
    }


def test_check_accepts_attached_ideal_literal(capsys):
    code, out, _ = run_cli(
        capsys, "check", "--ring", "Z8 ideal(gens = 4)", "--m", "3", "--n", "1"
    )
    assert code == 0
    assert "weakly_only" in out


def test_parse_error_exits_one(capsys):
    code, _, err = run_cli(capsys, "check", "--ring", "Z8 (+) Z3", "--ideal", "1", "--m", "2", "--n", "1")
    assert code == 1
    assert "3 does not divide 8" in err
    code, _, err = run_cli(capsys, "check", "--ring", "Z8 &", "--ideal", "1", "--m", "2", "--n", "1")
    assert code == 1
    assert "position" in err


def test_usage_error_exits_one(capsys):
    code, _, _ = run_cli(capsys, "check", "--ring", "Z8")
    assert code == 1


def test_reversed_range_exits_one(capsys):
    code, out, err = run_cli(
        capsys, "classify", "--ring", "Z8", "--ideal", "4", "--m", "3..1", "--n", "1"
    )
    assert code == 1
    assert out == ""
    assert "3..1" in err


def test_max_order_violation_named(capsys):
    code, _, err = run_cli(
        capsys, "check", "--ring", "Z64", "--ideal", "2", "--m", "2", "--n", "1",
        "--max-order", "32",
    )
    assert code == 1
    assert "cap" in err


def test_max_order_caps_products_with_quotient_factors(capsys):
    # each factor has order 1000, within the cap; the product does not
    code, out, err = run_cli(capsys, "profile", "--ring", "Z1000 x Z1000/(0)", "--max-order", "1000")
    assert code == 1
    assert out == ""
    assert "has order 1000000, exceeding the cap 1000" in err


def test_order_cap_error_names_the_ring_asked_for(capsys):
    # the right-nested product is built inside out, and its innermost 21
    # factors are the first part over the cap
    spec = " x ".join(["Z2"] * 25)
    code, out, err = run_cli(capsys, "profile", "--ring", spec)
    assert (code, out) == (1, "")
    inner = " x ".join(["Z2"] * 21)
    assert err == (
        f"error: {inner} has order 2097152, exceeding the cap 1048576 (in {spec})\n"
    )


def test_deep_specs_exit_one_with_one_error_line(capsys, tmp_path):
    # nested this deep, the spec's own hash (600 factors) and the parser
    # (1200) overflowed the recursion limit with a traceback
    for factors in (600, 1200):
        code, out, err = run_cli(capsys, "profile", "--ring", " x ".join(["Z2"] * factors))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1, err
    path = tmp_path / "deep.family"
    path.write_text("extra_rings = " + " x ".join(["Z2"] * 700) + "\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "verify", "--family", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: line 1: ") and err.count("\n") == 1, err


def test_grid_max_below_one_exits_one_with_one_error_line(capsys, tmp_path):
    path = tmp_path / "nogrid.family"
    path.write_text("cyclic_max = 8\ngrid_max = 0\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "verify", "--family", str(path))
    assert (code, out, err) == (1, "", "error: grid_max must be at least 1, got 0\n")


def test_readme_machine_examples_match_the_cli(capsys):
    check, verdict = re.findall(r"```json\n(.*?)\n```", (ROOT / "README.md").read_text(), re.S)
    code, out, _ = run_cli(
        capsys, "check", "--ring", "Z8", "--ideal", "4", "--m", "3", "--n", "1", "--format", "machine"
    )
    assert (code, out) == (0, check + "\n")
    code, out, _ = run_cli(
        capsys, "verify", "--theorems", "T-NIL", "--family", "default", "--format", "machine"
    )
    # the verdict record, then the summary record that ends every stream
    assert code == 0
    assert out == verdict + "\n" + '{"passed":1,"summary":true,"total":1}\n'


def test_explicit_max_order_overrides_the_family_file(capsys, tmp_path):
    # an explicit --max-order applies whatever its value, the default included
    path = tmp_path / "capped.family"
    path.write_text("cyclic_moduli = 2, 128\nmax_order = 64\n", encoding="utf-8")
    family = ("--family", str(path))
    code, out, err = run_cli(
        capsys, "verify", "--theorems", "T-ZPK", "--workers", "1", *family, "--max-order", "1048576"
    )
    assert (code, err) == (0, "")
    assert "summary: 1/1 pass" in out
    code, _, err = run_cli(capsys, "search", "weak-not-closed-exists", *family, "--max-order", "1048576")
    assert (code, err) == (0, "")
    code, _, err = run_cli(capsys, "verify", "--theorems", "T-ZPK", "--workers", "1", *family)
    assert code == 1
    assert "exceeding the cap 64" in err


def test_negative_ideal_literal_rejected(capsys):
    code, out, err = run_cli(capsys, "check", "--ring", "Z8", "--ideal", "-4", "--m", "2", "--n", "1")
    assert code == 1
    assert out == ""
    assert "ideal literal -4 is out of range" in err


def test_classify_grid(capsys):
    code, out, _ = run_cli(
        capsys, "classify", "--ring", "Z16", "--ideal", "8", "--m", "2..3", "--n", "1..2"
    )
    assert code == 0
    assert "(2,1): weakly_only" in out
    assert "(3,1): not_weakly" in out


def test_profile_ring(capsys):
    code, out, _ = run_cli(capsys, "profile", "--ring", "Z8 x Z4")
    assert code == 0
    assert "B(3)" in out


def test_profile_machine_record(capsys):
    code, out, _ = run_cli(capsys, "profile", "--ring", "Z8", "--format", "machine")
    assert code == 0
    record = json.loads(out.strip())
    assert record == {
        "k": 3, "per_element_max_witness": 2, "ring_spec": "Z8",
        "strongly_pi_regular": True,
    }


def test_profile_element(capsys):
    code, out, _ = run_cli(capsys, "profile", "--ring", "Z8", "--element", "2", "--format", "machine")
    assert code == 0
    assert json.loads(out.strip()) == {"ring_spec": "Z8", "element": 2, "k": 3}


def test_negative_element_literal_rejected(capsys):
    code, out, err = run_cli(capsys, "profile", "--ring", "Z8", "--element", "-1", "--format", "machine")
    assert code == 1
    assert out == ""
    assert "element literal -1 is out of range" in err


def test_verify_small_family(capsys, family_file):
    code, out, _ = run_cli(
        capsys, "verify", "--theorems", "T-NIL,T-ZPK", "--family", family_file,
        "--workers", "1",
    )
    assert code == 0
    assert "T-NIL" in out and "T-ZPK" in out
    assert "summary: 2/2 pass" in out


def test_verify_machine_output_is_deterministic(capsys, family_file):
    args = (
        "verify", "--theorems", "T-NIL,T-PRODMAX", "--family", family_file,
        "--workers", "1", "--format", "machine",
    )
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    *verdict_lines, summary_line = out1.strip().splitlines()
    for line in verdict_lines:
        record = json.loads(line)
        assert record["status"] == "pass"
        assert set(record) == {"theorem_id", "instances_checked", "vacuous_count", "status"}
    assert json.loads(summary_line) == {"summary": True, "passed": 2, "total": 2}


def test_verify_rejects_unknown_ids(capsys, family_file):
    code, _, err = run_cli(capsys, "verify", "--theorems", "T-NOPE", "--family", family_file)
    assert code == 1
    assert "T-NOPE" in err


def test_verify_rejects_an_empty_theorem_list(capsys, family_file):
    for raw in ("", ",", " , "):
        code, out, err = run_cli(capsys, "verify", "--theorems", raw, "--family", family_file)
        assert code == 1
        assert out == ""
        assert "names no theorem" in err


def test_verify_rejects_repeated_ids(capsys, family_file):
    code, out, err = run_cli(
        capsys, "verify", "--theorems", "T-ZPK,T-NIL, T-ZPK", "--family", family_file
    )
    assert code == 1
    assert out == ""
    assert "repeated" in err and "T-ZPK" in err and "T-NIL" not in err


def test_theorem_with_no_instances_is_empty_and_exits_two(capsys, tmp_path):
    path = tmp_path / "no-principal.family"
    path.write_text(
        "cyclic_max = 8\nprincipal_primes = 2\nprincipal_max_exponent = 1\n", encoding="utf-8"
    )
    args = ("verify", "--theorems", "T-PRINCIPAL", "--family", str(path), "--workers", "1")
    code, out, _ = run_cli(capsys, *args)
    assert code == 2
    assert out.splitlines()[0].split()[:2] == ["T-PRINCIPAL", "empty"]
    assert "summary: 0/1 pass" in out
    code, out, _ = run_cli(capsys, *args, "--format", "machine")
    assert code == 2
    first, summary = (json.loads(line) for line in out.splitlines())
    assert (first["status"], first["instances_checked"]) == ("empty", 0)
    assert (summary["passed"], summary["total"]) == (0, 1)


def test_non_prime_principal_prime_exits_one(capsys, tmp_path):
    path = tmp_path / "bad.family"
    path.write_text("cyclic_max = 8\nprincipal_primes = 4\n", encoding="utf-8")
    code, out, err = run_cli(
        capsys, "verify", "--theorems", "T-PRINCIPAL", "--family", str(path), "--workers", "1"
    )
    assert code == 1
    assert out == ""
    assert "principal_primes" in err and "4" in err


def test_search_finds_the_z8_witness(capsys, family_file):
    code, out, _ = run_cli(
        capsys, "search", "weak-not-closed-exists", "--family", family_file,
        "--format", "machine",
    )
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert any(
        r.get("ring_spec") == "Z8" and r.get("ideal_gens") == [4] and r.get("m") == 3
        for r in records
    )


def test_workers_env_fallback(capsys, family_file, monkeypatch):
    monkeypatch.setenv("CLOSURE_LAB_WORKERS", "1")
    code, out, _ = run_cli(capsys, "verify", "--theorems", "T-ZPK", "--family", family_file)
    assert code == 0
    assert "1/1 pass" in out


def test_nonpositive_workers_rejected(capsys, family_file):
    for count in ("0", "-2"):
        code, out, err = run_cli(
            capsys, "verify", "--theorems", "T-ZPK", "--family", family_file, "--workers", count
        )
        assert code == 1
        assert out == ""
        assert "--workers" in err


def test_nonpositive_workers_env_rejected(capsys, family_file, monkeypatch):
    for count in ("0", "-2"):
        monkeypatch.setenv("CLOSURE_LAB_WORKERS", count)
        code, out, err = run_cli(capsys, "verify", "--theorems", "T-ZPK", "--family", family_file)
        assert code == 1
        assert out == ""
        assert "CLOSURE_LAB_WORKERS" in err


def _module_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _run_module(*argv):
    return subprocess.run(
        [sys.executable, "-m", "closure_lab", *argv],
        capture_output=True, text=True, env=_module_env(),
    )


def test_module_entry_point(family_file):
    # the real entry point leaves through os._exit: its exit codes, stdout
    # and stderr must still be those `main` produced
    check = ("check", "--ring", "Z8", "--ideal", "4", "--n", "1", "--format", "machine")
    result = _run_module(*check, "--m", "3")
    assert result.returncode == 0
    assert json.loads(result.stdout.strip())["status"] == "weakly_only"
    assert result.stderr == ""
    result = _run_module(*check, "--m", "2")
    assert (result.returncode, result.stderr) == (2, "")
    assert json.loads(result.stdout) == {
        "ideal_gens": [4], "m": 2, "n": 1, "ring_spec": "Z8", "status": "not_weakly", "witness": 2,
    }
    result = _run_module("check", "--ring", "Z8 x", "--ideal", "4", "--m", "2", "--n", "1")
    assert (result.returncode, result.stdout) == (1, "")
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1, result.stderr


def test_entry_point_lets_exceptions_through():
    # only `main`'s own exit codes leave through os._exit: anything else
    # still ends the process with its traceback
    code = "from closure_lab import cli\ncli.main = lambda: 1 // 0\ncli.run()\n"
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_module_env()
    )
    assert (result.returncode, result.stdout) == (1, "")
    assert result.stderr.startswith("Traceback") and "ZeroDivisionError" in result.stderr


def test_closed_stdout_exits_quietly():
    # 755 kB of records: more than a pipe holds, so the command is still
    # writing when the reader closes its end after the first line
    proc = subprocess.Popen(
        [sys.executable, "-m", "closure_lab", "classify", "--ring", "Z8192", "--ideal", "4096",
         "--m", "1..100", "--n", "1..100", "--format", "machine"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_module_env(),
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert json.loads(first)["ring_spec"] == "Z8192"
    assert proc.wait() == BROKEN_PIPE_EXIT == 141
    assert stderr == b""


def test_cli_runs_without_numpy():
    # closure-lab has no runtime dependencies; a large cyclic classify must
    # not reach for numpy
    code = (
        "import sys; sys.modules['numpy'] = None\n"
        "from closure_lab.cli import main\n"
        "sys.exit(main(['classify', '--ring', 'Z8192', '--ideal', '4096',"
        " '--m', '1..6', '--n', '1..5', '--format', 'machine']))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_module_env()
    )
    assert result.returncode == 0, result.stderr
    assert len(result.stdout.splitlines()) == 30
    assert result.stderr == ""


def test_text_output_of_check_and_profile(capsys):
    code, out, _ = run_cli(capsys, "check", "--ring", "Z8 (+) Z4", "--ideal", "10", "--m", "3", "--n", "2")
    assert code == 0
    assert out == (
        "ring: Z8 (+) Z4\n"
        "ideal: {(0, 0), (0, 2), (2, 0), (2, 2), (4, 0), (4, 2), (6, 0), (6, 2)}\n"
        "(m, n): (3, 2)\n"
        "status: closed\n"
    )
    code, out, _ = run_cli(capsys, "profile", "--ring", "Z8 x Z9", "--element", "14")
    assert code == 0
    assert out == "B(1) (element (1, 5) of Z8 x Z9)\n"


def test_machine_output_builds_no_text(capsys, monkeypatch):
    # the text of a large ideal joins every member; machine output skips it
    def refuse(*_):
        raise AssertionError("text built for machine output")

    monkeypatch.setattr("closure_lab.cli._report_lines", refuse)
    code, out, _ = run_cli(
        capsys, "check", "--ring", "Z8192 (+) Z4", "--ideal", "4098", "--m", "3", "--n", "2",
        "--format", "machine",
    )
    assert code == 2
    assert json.loads(out)["status"] == "not_weakly"


LAYERS = ("specs", "families", "rings", "ideals", "closure", "regularity", "theorems", "cli")


def test_cli_import_leaves_the_process_pool_unloaded():
    # only `verify --workers > 1` needs the pool; every layer module is
    # still loaded by the import.  The records are written by hand, so
    # neither `dataclasses` nor the `inspect` it pulls in is loaded either
    code = (
        "import sys\n"
        "import closure_lab.cli\n"
        "absent = ('concurrent.futures', 'multiprocessing', 'dataclasses', 'inspect')\n"
        "loaded = [m for m in absent if m in sys.modules]\n"
        f"layers = [m for m in {LAYERS!r} if 'closure_lab.' + m not in sys.modules]\n"
        "print(loaded, layers)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_module_env()
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[] []\n"


def _left_running(pgid) -> bool:
    """Whether a process of group `pgid` still runs; kills the group if so."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return False
    return True


def test_verify_two_workers_matches_one_byte_for_byte(tmp_path):
    outputs = []
    for workers in ("1", "2"):
        # its own process group, which a pool worker left running would
        # keep alive, and files instead of pipes, which it would keep open
        out, err = tmp_path / f"out{workers}", tmp_path / f"err{workers}"
        with out.open("wb") as stdout, err.open("wb") as stderr:
            proc = subprocess.Popen(
                [sys.executable, "-m", "closure_lab", "verify", "--workers", workers,
                 "--format", "machine"],
                stdout=stdout, stderr=stderr, env=_module_env(), start_new_session=True,
            )
            code = proc.wait(timeout=300)
        assert not _left_running(proc.pid)
        assert code == 0, err.read_bytes()
        assert err.read_bytes() == b""
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    lines = outputs[0].splitlines()
    assert len(lines) == len(THEOREM_IDS) + 1
    assert json.loads(lines[-1]) == {"passed": len(THEOREM_IDS), "summary": True,
                                     "total": len(THEOREM_IDS)}
