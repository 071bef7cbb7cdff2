"""Self-test of the benchmark (about two minutes on 2 CPUs).

    python3 perfbench/selftest.py

Checks, from the root of a checkout:

* ``family.conf`` still realizes the pinned family recorded in
  ``baseline.json`` (counts and a digest of the ring specs);
* the oracle's closed forms agree with its brute force on small rings;
* one block of the query stream matches the oracle, and a deliberately
  wrong expectation raises the error rate above 0;
* traced verify at 1 and 2 workers reproduces the sanity counts in
  ``baseline.json`` (at 2 workers they can only come back from the pool
  workers), with every verdict as expected, and a wrong verify
  expectation raises the error rate above 0.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
import sys
import time

import oracle
import run
import tracer

BASELINE = json.loads((run.HERE / "baseline.json").read_text())
failures = []


def expect(condition: bool, message: str):
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        failures.append(message)


def family_digest(family, format_ring_spec) -> str:
    text = "\n".join(
        [format_ring_spec(spec) for spec in family.ring_specs]
        + [repr(family.principal_cases), repr(family.mn_pairs), repr(family.spot_pairs)]
    )
    return hashlib.sha256(text.encode()).hexdigest()


def check_family():
    sys.path.insert(0, str(run.ROOT / "src"))
    from closure_lab import format_ring_spec, load_family

    family = load_family(str(run.HERE / "family.conf"))
    pinned = BASELINE["family"]
    counts = {
        "ring_specs": len(family.ring_specs),
        "principal_cases": len(family.principal_cases),
        "mn_pairs": len(family.mn_pairs),
        "spot_pairs": len(family.spot_pairs),
    }
    expect(counts == {k: pinned[k] for k in counts}, f"pinned family counts {counts}")
    expect(family_digest(family, format_ring_spec) == pinned["sha256"], "pinned family digest")


def check_oracle():
    mismatches = 0
    for p, c in ((2, 2), (2, 3), (2, 5), (3, 2), (3, 3), (5, 2)):
        ring = oracle.build(("Z", p ** c))
        for j in range(1, c + 1):
            ideal = ring.ideal([p ** j % p ** c])
            for m in range(1, 7):
                for n in range(1, 7):
                    mismatches += oracle.cyclic_classify(p, c, j, m, n) != oracle.brute_classify(ring, ideal, m, n)
        for x in ring.elements:
            mismatches += oracle.cyclic_element_profile(p, c, x) != oracle.brute_element_profile(ring, x)
    for n in range(2, 41):
        mismatches += oracle.cyclic_ring_profile(n) != oracle.brute_ring_profile(oracle.build(("Z", n)))
    for a in range(2, 9):
        for b in range(2, 9):
            spec = ("x", ("Z", a), ("Z", b))
            mismatches += oracle.product_ring_profile(a, b) != oracle.brute_ring_profile(oracle.build(spec))
    expect(mismatches == 0, f"closed forms agree with brute force ({mismatches} mismatches)")


def check_queries(deadline: float):
    sanity = BASELINE["sanity"]["queries"]
    stats = run.one_pass("queries", 0, 0, deadline)
    expect(
        stats.attempted == run.queries.BLOCK_SIZE and stats.failed == sanity["failed"],
        f"query block matches the oracle ({stats.failed} of {stats.attempted} failed)",
    )
    expect(stats.instances == [sanity["instances_checked"]], f"query block instances {stats.instances}")
    block = run.queries.draw_block(0, 0)
    right = block[0].expect()
    wrong = {**right, "exit": right["exit"] + 3}
    block[0] = dataclasses.replace(block[0], expect=lambda: wrong)
    draw_block = run.queries.draw_block
    run.queries.draw_block = lambda seed, index: block
    try:
        stats = run.one_pass("queries", 0, 0, deadline)
    finally:
        run.queries.draw_block = draw_block
    expect(stats.failed / stats.attempted > 0, "a wrong query expectation raises the error rate above 0")


def traced_verify(workload: str, deadline: float):
    trace_dir = run.OUT_DIR / f"selftest-{workload}"
    trace_dir.mkdir(parents=True, exist_ok=True)
    try:
        argv = ["verify", "--theorems", "all", "--family", run.FAMILY,
                "--workers", str(run.WORKERS[workload]), "--format", "machine"]
        outcome = run.run_command(argv, deadline, trace_dir)
        metrics = tracer.layer_metrics(tracer.read_records(trace_dir), run.THEOREM_IDS)
    finally:
        shutil.rmtree(trace_dir, ignore_errors=True)
    return outcome, metrics


def check_verify(deadline: float):
    for workload in run.WORKERS:
        outcome, metrics = traced_verify(workload, deadline)
        failed, instances = run.check_verify(outcome)
        sanity = BASELINE["sanity"][workload]
        expect(failed == sanity["failed"], f"{workload}: every verdict as expected ({failed} failed)")
        expect(instances == sanity["instances_checked"], f"{workload}: instances_checked = {instances}")
        for name, value in sanity["layers"].items():
            expect(metrics[name] == value, f"{workload}: {name} = {metrics[name]}")
        wrong = json.loads(json.dumps(run.EXPECT_VERIFY))
        wrong["theorems"]["T-NIL"] = "fail"
        expect(
            run.check_verify(outcome, wrong)[0] / len(run.THEOREM_IDS) > 0,
            f"{workload}: a wrong verify expectation raises the error rate above 0",
        )


def main() -> int:
    deadline = time.perf_counter() + 600
    run.build()
    check_family()
    check_oracle()
    check_queries(deadline)
    check_verify(deadline)
    print(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
