"""Set-up probe: import closure_lab and make a workload's inputs ready,
then print time.perf_counter().

    python perfbench/probe.py WORKLOAD SEED

The caller subtracts its own perf_counter() taken just before starting
this interpreter (both read the system-wide monotonic clock), so the
set-up time excludes interpreter teardown.
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
# about as many blocks of the stream as a 50-second run of `queries` uses
SETUP_BLOCKS = 12


def main(workload: str, seed: int):
    import closure_lab

    if workload == "queries":
        import queries

        for index in range(SETUP_BLOCKS):
            queries.draw_block(seed, index)
    else:
        closure_lab.load_family(str(HERE / "family.conf"))
    print(time.perf_counter())


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
