"""Command-line front end.

Subcommands: `check` one (ideal, m, n) instance, `classify` a grid of
exponent pairs, `profile` a ring or element, `verify` the theorem
catalog over a family, and `search` for separating witnesses.  Text
output is the default; `--format machine` emits line-delimited JSON with
sorted keys, so identical invocations are byte-identical.

Exit codes: 0 for success (for `check`: the ideal is weakly closed;
for `verify`: every theorem passed), 1 for usage or parse errors, 2 when
the queried property is false or a theorem did not pass, and 141 when
stdout was closed before the output was written (see `run`).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys

from .closure import STATUS_NOT_WEAKLY, classify
from .families import load_family, with_max_order
from .ideals import ideal_from_generators
from .regularity import VnrProfile, regularity_record, vnr_profile_element
from .rings import DEFAULT_ORDER_CAP, build_ring
from .specs import SpecError, parse_ring_with_ideal
from .theorems import (
    CATALOG,
    PASS,
    SEARCH_PREDICATES,
    THEOREM_IDS,
    search_counterexamples,
    verify_many,
)

WORKERS_ENV = "CLOSURE_LAB_WORKERS"
# exit code when stdout is closed under the command: 128 + SIGPIPE, what a
# shell reports for a process that SIGPIPE ended
BROKEN_PIPE_EXIT = 141


def _machine_line(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def _emit(record: dict, fmt: str, text_lines):
    """Print `record` as one machine line, or the lines that the callable
    `text_lines` builds: a large ideal's text is only built when shown."""
    if fmt == "machine":
        print(_machine_line(record))
    else:
        for line in text_lines():
            print(line)


def _parse_range(raw: str):
    if ".." in raw:
        lo, _, hi = raw.partition("..")
        lo, hi = int(lo), int(hi)
    else:
        lo = hi = int(raw)
    if hi < lo:
        raise ValueError(f"empty exponent range {raw!r}: {hi} < {lo}")
    return range(lo, hi + 1)


def _resolve_ring_and_ideal(args):
    spec, attached_gens = parse_ring_with_ideal(args.ring)
    ring = build_ring(spec, args.max_order)
    literals = attached_gens
    if args.ideal is not None:
        literals = tuple(int(part) for part in args.ideal.split(",") if part.strip())
    gens = []
    for literal in literals:
        if not 0 <= literal < ring.order:
            raise SpecError(
                f"ideal literal {literal} is out of range for {ring.spec_str}"
            )
        gens.append(ring.element_at(literal))
    return ring, ideal_from_generators(ring, gens)


def _report_lines(report) -> list:
    lines = [
        f"ring: {report.ideal.ring.spec_str}",
        f"ideal: {report.ideal!r}",
        f"(m, n): ({report.m}, {report.n})",
        f"status: {report.status}",
    ]
    if report.witness is not None:
        lines.append(f"witness: {report.witness}")
    return lines


def _cmd_check(args) -> int:
    _, ideal = _resolve_ring_and_ideal(args)
    report = classify(ideal, args.m, args.n)
    _emit(report.to_record(), args.format, lambda: _report_lines(report))
    return 2 if report.status == STATUS_NOT_WEAKLY else 0


def _cmd_classify(args) -> int:
    _, ideal = _resolve_ring_and_ideal(args)
    for m in _parse_range(args.m):
        for n in _parse_range(args.n):
            report = classify(ideal, m, n)
            if args.format == "machine":
                print(_machine_line(report.to_record()))
            else:
                witness = "" if report.witness is None else f"  witness={report.witness}"
                print(f"({m},{n}): {report.status}{witness}")
    return 0


def _cmd_profile(args) -> int:
    spec, _ = parse_ring_with_ideal(args.ring)
    ring = build_ring(spec, args.max_order)
    if args.element is not None:
        if not 0 <= args.element < ring.order:
            raise SpecError(f"element literal {args.element} is out of range")
        element = ring.element_at(args.element)
        profile = vnr_profile_element(ring, element)
        record = {"ring_spec": ring.spec_str, "element": args.element, "k": profile.k}
        _emit(record, args.format, lambda: [f"{profile} (element {element} of {ring.spec_str})"])
    else:
        record = regularity_record(ring)
        profile = VnrProfile(record["k"])
        _emit(record, args.format, lambda: [f"{profile} ({profile.k}-regular: {ring.spec_str})"])
    return 0


def _resolve_workers(args) -> int:
    workers = args.workers
    if workers is None:
        workers = int(os.environ.get(WORKERS_ENV) or os.cpu_count() or 1)
    if workers < 1:
        raise ValueError(f"--workers / {WORKERS_ENV} must be at least 1, got {workers}")
    return workers


def _load_family(args):
    """The --family source, under --max-order when that flag is given."""
    family = load_family(args.family)
    if args.max_order is not None:
        family = with_max_order(family, args.max_order)
    return family


def _cmd_verify(args) -> int:
    workers = _resolve_workers(args)
    family = _load_family(args)
    if args.theorems == "all":
        ids = list(THEOREM_IDS)
    else:
        ids = [part.strip() for part in args.theorems.split(",") if part.strip()]
        if not ids:
            raise SpecError(f"--theorems {args.theorems!r} names no theorem")
        unknown = [i for i in ids if i not in CATALOG]
        if unknown:
            raise SpecError(f"unknown theorem ids: {', '.join(unknown)}")
        repeated = [i for i in dict.fromkeys(ids) if ids.count(i) > 1]
        if repeated:
            raise SpecError(f"repeated theorem ids: {', '.join(repeated)}")
    verdicts = verify_many(ids, family, workers=workers)
    for verdict in verdicts:
        if args.format == "machine":
            print(_machine_line(verdict.to_record()))
        else:
            line = (
                f"{verdict.theorem_id:<14} {verdict.status:<16} "
                f"checked={verdict.instances_checked} vacuous={verdict.vacuous_count}"
            )
            print(line)
            if verdict.counterexample:
                print(f"    counterexample: {verdict.counterexample}")
    passed = sum(1 for v in verdicts if v.status == PASS)
    if args.format == "machine":
        print(_machine_line({"summary": True, "passed": passed, "total": len(verdicts)}))
    else:
        print(f"summary: {passed}/{len(verdicts)} pass")
        for verdict in verdicts:
            if verdict.status != PASS:
                print(f"  {verdict.theorem_id}: {verdict.status}")
    return 0 if passed == len(verdicts) else 2


def _cmd_search(args) -> int:
    family = _load_family(args)
    witnesses = search_counterexamples(args.predicate, family)
    for witness in witnesses:
        if args.format == "machine":
            print(_machine_line(witness))
        else:
            print(witness)
    if args.format != "machine":
        print(f"{len(witnesses)} witness(es)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="closure-lab",
        description="finite commutative ring lab: closure properties of ideals, "
        "regularity profiles, and an exhaustive theorem verifier",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, ideal=False, exponents=False, ranged=False):
        p.add_argument("--ring", required=True, help="ring spec, e.g. 'Z8' or 'Z8 x Z4'")
        if ideal:
            p.add_argument("--ideal", help="comma-separated generator literals")
        if exponents:
            kind = str if ranged else int
            metavar = "M[..M2]" if ranged else "M"
            p.add_argument("--m", required=True, type=kind, metavar=metavar)
            p.add_argument("--n", required=True, type=kind, metavar=metavar.replace("M", "N"))
        p.add_argument("--format", choices=("text", "machine"), default="text")
        p.add_argument("--max-order", type=int, default=DEFAULT_ORDER_CAP)

    p_check = sub.add_parser("check", help="classify one (ideal, m, n) instance")
    add_common(p_check, ideal=True, exponents=True)
    p_check.set_defaults(func=_cmd_check)

    p_classify = sub.add_parser("classify", help="classify a grid of exponent pairs")
    add_common(p_classify, ideal=True, exponents=True, ranged=True)
    p_classify.set_defaults(func=_cmd_classify)

    p_profile = sub.add_parser("profile", help="regularity profile of a ring or element")
    add_common(p_profile)
    p_profile.add_argument("--element", type=int, help="element literal (canonical index)")
    p_profile.set_defaults(func=_cmd_profile)

    p_verify = sub.add_parser("verify", help="run the theorem catalog over a family")
    p_verify.add_argument("--theorems", default="all", help="'all' or a comma list of ids")
    p_verify.add_argument("--family", default="default", help="'default' or a config path")
    p_verify.add_argument("--workers", type=int, default=None)
    p_verify.add_argument("--format", choices=("text", "machine"), default="text")
    p_verify.add_argument("--max-order", type=int, help="default: the family's max_order")
    p_verify.set_defaults(func=_cmd_verify)

    p_search = sub.add_parser("search", help="search a family for separating witnesses")
    p_search.add_argument("predicate", choices=SEARCH_PREDICATES)
    p_search.add_argument("--family", default="default", help="'default' or a config path")
    p_search.add_argument("--format", choices=("text", "machine"), default="text")
    p_search.add_argument("--max-order", type=int, help="default: the family's max_order")
    p_search.set_defaults(func=_cmd_search)

    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code.  A closed stdout raises
    `BrokenPipeError`; every other input or OS error prints one `error:`
    line and returns 1."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except BrokenPipeError:
        raise
    except (SpecError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    """The `closure-lab` script and ``python -m closure_lab``: run `main`,
    flush stdout and stderr, and leave through `os._exit` with its code.

    A one-shot process has no use for freeing its caches, so it skips the
    interpreter's teardown, and it stops the cyclic garbage collector,
    which would only scan the caches again and again: the commands leave
    no reference cycle behind but the parser's (a test pins that for the
    theorem catalog and the searches).  Any process pool is shut down
    inside `main`, so no child outlives it.  An exception still ends the
    process with its traceback.  A reader that closes stdout early gets
    exit code `BROKEN_PIPE_EXIT` and no traceback.
    """
    gc.disable()
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        code = BROKEN_PIPE_EXIT
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
