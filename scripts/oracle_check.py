#!/usr/bin/env python3
"""Compare the brute-force CHSH maximizer with the closed form on random states.

Usage: python scripts/oracle_check.py [count] [seed]

``count`` (default 25) must be a positive integer and ``seed`` a
nonnegative one.  Besides the time per state, the script prints the median
times of the oracle's two stages, each timed on its own in a second, warm
call (the grid stage with no Newton step, ``bell._grid_stage(psi, 24, 0)``,
and the Newton refinement of its best B pair, ``bell._polish`` at up to 40
steps), and the minor page faults per oracle call (the first call, and the
median and mean of the later ones) where the ``resource`` module exists.
The grid stage is split once more: the pair ranking, ``bell._pair_values``
(the float32 keys) timed in a third call, and the rest, the grid stage's
time less it.  The next line counts the pairs the float32 keys' cut
keeps for the float64 comparison, per state and out of all the B pairs
(``bell._candidates`` at ``grid_n`` 24): median and max over the random
states, and over the boundary family below.  A last line times the near-maximal boundary family |x| = |y| = t,
eta = pi, |mu|^2 = s/(2 (1 - t^2)), for t in {0.3, 0.6, 0.9} and s in
{1, 0.97}.  The Newton refinement takes the most steps along this
family's nearly flat ridge, so its worst state is the slowest warm call.

Exits 0; 2 with one usage line on stderr for a bad count or seed; or 141
when the reader closes stdout early (``| head``).
"""

import math
import statistics
import sys
import time

try:
    import resource
except ImportError:     # not on every platform
    resource = None

from nonortho.bell import (_bloch_vectors, _candidates, _grid_constants, _grid_stage,
                           _pair_values, _pauli_forms, _polish, _tensor_image, _workspace,
                           analytic_bell, oracle_bell_max)
from nonortho.cli import closed_stdout_status
from nonortho.report import canonical_bell_value
from nonortho.sampling import DEFAULT_SEED, random_states
from nonortho.schmidt import coefficient_matrix, schmidt_decompose
from nonortho.state import embed, state_from_magnitudes

USAGE = "usage: oracle_check.py [count] [seed]  (count >= 1, seed >= 0, integers)"
BOUNDARY = [state_from_magnitudes(s / (2.0 * (1.0 - t * t)), t, t, math.pi)
            for t in (0.3, 0.6, 0.9) for s in (1.0, 0.97)]


def parse_args(argv: list[str]) -> tuple[int, int] | None:
    """(count, seed) from the command line, or None if it is not valid."""
    if len(argv) > 2:
        return None
    try:
        count = int(argv[0]) if len(argv) > 0 else 25
        seed = int(argv[1]) if len(argv) > 1 else DEFAULT_SEED
    except ValueError:
        return None
    if count < 1 or seed < 0:
        return None
    return count, seed


def survivors(state) -> int:
    """How many B pairs the float32 cut keeps for ``state`` at grid_n 24."""
    grid = _grid_constants(24)
    image = _tensor_image(_pauli_forms(coefficient_matrix(embed(state)).tolist()), grid.bloch)
    return len(_candidates(image, grid.pairs)[0])


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def main(argv: list[str]) -> int:
    parsed = parse_args(argv)
    if parsed is None:
        print(USAGE, file=sys.stderr)
        return 2
    count, seed = parsed
    worst_match = 0.0
    worst_shortfall = 0.0
    seconds = []
    stage_seconds = ([], [], [])     # grid stage, refinement, pair ranking
    faults = []
    kept = []
    for i, state in enumerate(random_states(count, seed)):
        analytic = analytic_bell(schmidt_decompose(state))
        canonical = canonical_bell_value(state)
        vector = embed(state)
        before = minor_faults() if resource else 0
        start = time.perf_counter()
        oracle = oracle_bell_max(vector)
        seconds.append(time.perf_counter() - start)
        if resource:
            faults.append(minor_faults() - before)
        psi = coefficient_matrix(vector)
        start = time.perf_counter()
        angles = _grid_stage(psi, 24, 0)[1]
        stage_seconds[0].append(time.perf_counter() - start)
        forms = _pauli_forms(psi.tolist())
        b, b_prime = (tuple(n) for n in _bloch_vectors(angles[4::2], angles[5::2]).tolist())
        start = time.perf_counter()
        _polish(forms, b, b_prime, 40)
        stage_seconds[1].append(time.perf_counter() - start)
        grid = _grid_constants(24)      # built by the first oracle call
        image = _tensor_image(forms, grid.bloch)
        space = _workspace(len(image))
        start = time.perf_counter()
        _pair_values(image, grid.pairs, space)
        stage_seconds[2].append(time.perf_counter() - start)
        kept.append(survivors(state))
        worst_match = max(worst_match, abs(oracle - analytic))
        worst_shortfall = max(worst_shortfall, canonical - oracle)
        if i < 5:
            print(f"state {i}: analytic={analytic:.12f} oracle={oracle:.12f} "
                  f"diff={oracle - analytic:+.2e}")
    print(f"\n{count} states, oracle time per state: "
          f"median {1e3 * statistics.median(seconds):.1f} ms, worst {1e3 * max(seconds):.1f} ms")
    grid_ms, refine_ms, ranking_ms = (1e3 * statistics.median(s) for s in stage_seconds)
    rest_ms = 1e3 * statistics.median(g - r for g, r in zip(stage_seconds[0], stage_seconds[2]))
    print(f"oracle stages per state: grid stage median {grid_ms:.2f} ms, "
          f"refinement median {refine_ms:.2f} ms")
    print(f"grid stage split per state: pair ranking median {ranking_ms:.2f} ms, "
          f"rest median {rest_ms:.2f} ms")
    kept_boundary = [survivors(state) for state in BOUNDARY]
    print(f"float32 cut survivors per state, of {len(_grid_constants(24).pairs)} pairs: "
          f"random median {statistics.median(kept):g}, max {max(kept)}; "
          f"boundary family median {statistics.median(kept_boundary):g}, "
          f"max {max(kept_boundary)}")
    if faults:
        later = faults[1:]
        rest = (f", later calls median {statistics.median(later):g}, "
                f"mean {statistics.fmean(later):.2f}" if later else "")
        print(f"minor page faults per oracle call: first call {faults[0]}{rest}")
    print(f"worst |oracle - analytic| = {worst_match:.3e}")
    print(f"worst shortfall vs canonical settings = {worst_shortfall:.3e}")
    boundary_seconds, boundary_match = [], 0.0
    for state in BOUNDARY:
        vector = embed(state)
        start = time.perf_counter()
        oracle = oracle_bell_max(vector)
        boundary_seconds.append(time.perf_counter() - start)
        boundary_match = max(boundary_match, abs(oracle - analytic_bell(schmidt_decompose(state))))
    print(f"boundary family, {len(BOUNDARY)} states, oracle time per state: "
          f"median {1e3 * statistics.median(boundary_seconds):.1f} ms, "
          f"worst {1e3 * max(boundary_seconds):.1f} ms, "
          f"worst |oracle - analytic| = {boundary_match:.3e}")
    sys.stdout.flush()      # a closed pipe raises here, not in the interpreter's exit
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BrokenPipeError:
        sys.exit(closed_stdout_status())
