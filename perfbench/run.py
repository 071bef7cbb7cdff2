"""closure-lab benchmark: end-to-end metrics, or per-layer metrics when traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a closure-lab checkout; the program is run from
``src/`` as ``python -m closure_lab``, one fresh process per command, so
caches start cold as they do for a CLI user.  Workloads (one client, a
closed loop, at most two computing processes at once on 2 CPUs):

* ``verify-serial``: ``verify --theorems all --workers 1`` over the pinned
  family in ``family.conf``.  Most of its time is the weakly n-absorbing
  sweep, then ideal enumeration, classification and regularity.
* ``verify-parallel``: the same with ``--workers 2``, which exercises the
  process pool; the busiest worker sets its time.  BENCHMARK.json leaves
  it out because its run-to-run spread is wider than any allowed bound
  (see ``baseline.json``); run it by hand to study scheduling.
* ``queries``: a seeded stream of one-shot ``check``, ``classify`` and
  ``profile`` queries (see ``queries.py``).  It never reaches the
  n-absorbing sweep, ideal enumeration or the theorem catalog.

The verify inputs are fixed; ``--seed`` only draws the query stream.

A pass is one verify command, or one block of the query stream.
Passes run back to back while the next one is expected to end within
``--seconds``; there is always at least one.  Every command's output is
checked against an oracle that does not import closure_lab.

With ``--trace 0`` the result's metrics are the end-to-end ones:

* ``setup_s``: fresh interpreter to closure_lab imported and the inputs
  ready (family loaded, or stream drawn); median of several probes.
* ``latency_p50_s``, ``latency_p90_s``: wall time of one command, from
  process start to exit: the verify command, or one query.
* ``commands_per_s``: commands completed per second of command wall time.
* ``instances_checked``: instances the commands of one pass decided:
  the sum of ``instances_checked`` over the 30 verdicts, or the check,
  classify and profile records of one block.
* ``peak_rss_mb``: the highest RSS of this process and of the processes it starts.

The share of operations whose outcome differs from the oracle (theorem
verdicts for verify, queries for queries) is ``failed / attempted`` in
the result line, and is printed as ``error_rate``.

With ``--trace 1`` the run makes untraced passes for half of
``--seconds``, then the same passes again under ``tracer.py``, and its
metrics are the per-layer ones (see ``tracer.layer_metrics``), averaged
over the traced passes, plus ``trace.overhead_s``: traced minus
untraced wall time per pass.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import queries  # noqa: E402
import tracer  # noqa: E402

WORKERS = {"verify-serial": 1, "verify-parallel": 2}
WORKLOADS = (*WORKERS, "queries")
FAMILY = "perfbench/family.conf"
EXPECT_VERIFY = json.loads((HERE / "expect_verify.json").read_text())
THEOREM_IDS = tuple(EXPECT_VERIFY["theorems"])
SETUP_PROBES = 9
# every run has to end within 180 s, traced verify-serial included
RUN_LIMIT_S = 170.0
OUT_DIR = ROOT / ".perfbench"


@dataclass
class Outcome:
    wall: float
    code: int | None  # None: killed at the run's time limit
    stdout: str
    stderr: str


@dataclass
class Stats:
    walls: list = field(default_factory=list)
    instances: list = field(default_factory=list)  # per pass
    attempted: int = 0
    failed: int = 0

    @property
    def passes(self) -> int:
        return len(self.instances)

    def merge(self, other: "Stats") -> "Stats":
        return Stats(
            self.walls + other.walls,
            self.instances + other.instances,
            self.attempted + other.attempted,
            self.failed + other.failed,
        )


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_command(argv, deadline: float, trace_dir: Path | None = None) -> Outcome:
    """One CLI command in a fresh process, killed with its process group
    if it would outlive the run's time limit."""
    if trace_dir is None:
        cmd = [sys.executable, "-m", "closure_lab", *argv]
    else:
        cmd = [sys.executable, str(HERE / "tracer.py"), str(trace_dir), *argv]
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=program_env(), text=True, start_new_session=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - start))
        code = proc.returncode
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        stdout, stderr = proc.communicate()
        code = None
    return Outcome(time.perf_counter() - start, code, stdout, stderr)


def _json_lines(text: str):
    try:
        return [json.loads(line) for line in text.splitlines() if line.strip()]
    except ValueError:
        return None


def check_verify(outcome: Outcome, expected: dict = EXPECT_VERIFY):
    """(failed theorems, summed instances_checked) against the expectation."""
    records = _json_lines(outcome.stdout) or []
    verdicts = [r for r in records if "theorem_id" in r]
    by_id = {r["theorem_id"]: r for r in verdicts}
    failed = sum(
        1
        for tid, status in expected["theorems"].items()
        if tid not in by_id or by_id[tid]["status"] != status or "counterexample" in by_id[tid]
    )
    whole_run_ok = (
        outcome.code == expected["exit"]
        and [r["theorem_id"] for r in verdicts] == list(expected["theorems"])
        and records[-1:] == [expected["summary"]]
    )
    if not whole_run_ok:
        failed = max(failed, 1)
    return failed, sum(r.get("instances_checked", 0) for r in verdicts)


def check_query(query: queries.Query, outcome: Outcome):
    """(matches the oracle, instances decided)."""
    expected = query.expect()
    if outcome.code != expected["exit"]:
        return False, 0
    if expected["records"] is None:
        return outcome.stdout == "" and outcome.stderr.startswith("error: "), 0
    records = _json_lines(outcome.stdout)
    ok = records == expected["records"]
    return ok, len(records) if ok else 0


def one_pass(workload: str, seed: int, index: int, deadline: float, trace_dir=None) -> Stats:
    stats = Stats()
    if workload in WORKERS:
        argv = ["verify", "--theorems", "all", "--family", FAMILY,
                "--workers", str(WORKERS[workload]), "--format", "machine"]
        outcome = run_command(argv, deadline, trace_dir)
        failed, instances = check_verify(outcome)
        if failed:
            print(f"mismatch: {failed} verdicts differ from expect_verify.json", file=sys.stderr)
        stats.walls.append(outcome.wall)
        stats.attempted += len(THEOREM_IDS)
        stats.failed += failed
        stats.instances.append(instances)
        return stats
    instances = 0
    for query in queries.draw_block(seed, index):
        outcome = run_command(query.argv, deadline, trace_dir)
        ok, decided = check_query(query, outcome)
        if not ok:
            print(f"mismatch: {query.template}: {' '.join(query.argv)}", file=sys.stderr)
        stats.walls.append(outcome.wall)
        stats.attempted += 1
        stats.failed += not ok
        instances += decided
        if time.perf_counter() > deadline:
            break
    stats.instances.append(instances)
    return stats


def run_passes(workload, seed, deadline, budget_s=None, count=None, trace_dir=None) -> Stats:
    """Passes back to back: `count` of them, or while the next one is
    expected to end within `budget_s` (at least one)."""
    stats = Stats()
    start = time.perf_counter()
    while True:
        pass_dir = None
        if trace_dir is not None:
            pass_dir = trace_dir / f"pass-{stats.passes}"
            pass_dir.mkdir(parents=True)
        stats = stats.merge(one_pass(workload, seed, stats.passes, deadline, pass_dir))
        used = time.perf_counter() - start
        if time.perf_counter() > deadline:
            break
        if count is not None:
            if stats.passes >= count:
                break
        elif used + used / stats.passes > budget_s:
            break
    return stats


def setup_seconds(workload: str, seed: int) -> float:
    """Median over several fresh interpreters of the time to ready."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        probe = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), workload, str(seed)],
            cwd=ROOT, env=program_env(), capture_output=True, text=True,
            timeout=60, check=True,
        )
        times.append(float(probe.stdout.split()[-1]) - start)
    return statistics.median(times)


def build():
    """Compile the sources to bytecode and load them once, so that the
    first timed interpreter does not pay for compiling or a cold disk."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", "src/closure_lab", "perfbench"],
        cwd=ROOT, env=program_env(), check=True, stdout=subprocess.DEVNULL, timeout=120,
    )
    subprocess.run(
        [sys.executable, "-c", "import closure_lab.cli"],
        cwd=ROOT, env=program_env(), check=True, timeout=60,
    )


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; the children's figure is the largest child
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024


def end_to_end(stats: Stats, setup_s: float) -> dict:
    walls = stats.walls
    p90 = statistics.quantiles(walls, n=10, method="inclusive")[8] if len(walls) > 1 else walls[0]
    return {
        "setup_s": (setup_s, "s"),
        "latency_p50_s": (statistics.median(walls), "s"),
        "latency_p90_s": (p90, "s"),
        "commands_per_s": (len(walls) / sum(walls), "1/s"),
        "instances_checked": (statistics.median(stats.instances), "count"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share"):
        return "ratio"
    return "count"


def traced_run(workload, seed, seconds, deadline):
    plain = run_passes(workload, seed, deadline, budget_s=seconds / 2)
    trace_dir = OUT_DIR / f"trace-{os.getpid()}"
    try:
        traced = run_passes(workload, seed, deadline, count=plain.passes, trace_dir=trace_dir)
        per_pass = [
            tracer.layer_metrics(tracer.read_records(pass_dir), THEOREM_IDS)
            for pass_dir in sorted(trace_dir.iterdir())
        ]
    finally:
        shutil.rmtree(trace_dir, ignore_errors=True)
    metrics = {name: statistics.fmean(m[name] for m in per_pass) for name in per_pass[0]}
    metrics["trace.overhead_s"] = (
        sum(traced.walls) / traced.passes - sum(plain.walls) / plain.passes
    )
    return plain.merge(traced), {k: (v, layer_unit(k)) for k, v in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "closure_lab" / "cli.py").is_file():
        print(f"error: no closure_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_LIMIT_S
    build()
    if args.trace:
        stats, metrics = traced_run(args.workload, args.seed, args.seconds, deadline)
    else:
        setup_s = setup_seconds(args.workload, args.seed)
        stats = run_passes(args.workload, args.seed, deadline, budget_s=args.seconds)
        metrics = end_to_end(stats, setup_s)

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={stats.passes} commands={len(stats.walls)}")
    print(f"error_rate = {stats.failed / stats.attempted:.6f} "
          f"({stats.failed} of {stats.attempted} operations differ from the oracle)")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": stats.failed == 0,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
