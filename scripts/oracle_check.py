#!/usr/bin/env python3
"""Compare the brute-force CHSH maximizer with the closed form on random states.

Usage: python scripts/oracle_check.py [count] [seed]

Exits 0, or 141 when the reader closes stdout early (``| head``).
"""

import statistics
import sys
import time

from nonortho.bell import analytic_bell, oracle_bell_max
from nonortho.cli import closed_stdout_status
from nonortho.report import canonical_bell_value
from nonortho.sampling import DEFAULT_SEED, random_states
from nonortho.schmidt import schmidt_decompose
from nonortho.state import embed


def main(argv: list[str]) -> int:
    count = int(argv[0]) if len(argv) > 0 else 25
    seed = int(argv[1]) if len(argv) > 1 else DEFAULT_SEED
    worst_match = 0.0
    worst_shortfall = 0.0
    seconds = []
    for i, state in enumerate(random_states(count, seed)):
        analytic = analytic_bell(schmidt_decompose(state))
        canonical = canonical_bell_value(state)
        vector = embed(state)
        start = time.perf_counter()
        oracle = oracle_bell_max(vector)
        seconds.append(time.perf_counter() - start)
        worst_match = max(worst_match, abs(oracle - analytic))
        worst_shortfall = max(worst_shortfall, canonical - oracle)
        if i < 5:
            print(f"state {i}: analytic={analytic:.12f} oracle={oracle:.12f} "
                  f"diff={oracle - analytic:+.2e}")
    print(f"\n{count} states, oracle time per state: "
          f"median {1e3 * statistics.median(seconds):.1f} ms, worst {1e3 * max(seconds):.1f} ms")
    print(f"worst |oracle - analytic| = {worst_match:.3e}")
    print(f"worst shortfall vs canonical settings = {worst_shortfall:.3e}")
    sys.stdout.flush()      # a closed pipe raises here, not in the interpreter's exit
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BrokenPipeError:
        sys.exit(closed_stdout_status())
