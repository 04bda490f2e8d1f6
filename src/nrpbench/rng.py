"""Reproducible random streams.

Every random decision in this package is drawn from a PCG64 generator
seeded through ``numpy.random.SeedSequence``.  Independent streams are
addressed by a (seed, *path) tuple, where the first path element is one
of the purpose constants below and the remaining elements identify the
sub-stream (iteration, ant index, restart index, ...).  The same address
always yields the same stream, on every platform, so results do not
depend on call order or on how work is scheduled across workers.

A construction draws the numbers for its steps ahead, in one call sized
for its longest fill, and afterwards puts its stream back where
step-by-step draws would have left it (:func:`draw_ahead`): every step
sees the value, and the climb that follows the state, that one scalar
call per step gives.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

# purpose tags (first spawn-key element)
GEN_COSTS = 1
GEN_EDGES = 2
GEN_CUSTOMERS = 3
ANT = 4
FHC_RESTART = 5
GRASP_RESTART = 6
SA_CHAIN = 7
SA_PROBE = 8


def substream(seed: int, *path: int) -> np.random.Generator:
    """Return the PCG64 generator addressed by (seed, *path).

    ``seed`` must be a non-negative integer; path elements are small
    non-negative integers.
    """
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(path))
    return np.random.Generator(np.random.PCG64(ss))


def draw_ahead(gen: np.random.Generator, draw: Callable[[int], np.ndarray],
               size: int) -> tuple[np.ndarray, Callable[[int], None]]:
    """Draw ``size`` values with ``draw(size)`` before the steps that use
    them; returns the block and ``put_back(used)``.

    ``draw(k)`` is one call on ``gen`` whose k values are the ones k
    scalar calls give in turn, and which leaves ``gen`` where they leave
    it: numpy's ``random``, and its ``integers`` over fewer than 2**32
    values, whose 32-bit path reads the bit generator's own buffered half
    (``tests/test_rng.py`` guards this).  ``put_back(used)`` restores the state saved before the
    block and draws its first ``used`` values again, so ``gen`` ends where
    ``used`` step-by-step draws leave it.
    """
    state = gen.bit_generator.state
    block = draw(size)

    def put_back(used: int) -> None:
        gen.bit_generator.state = state
        if used:
            draw(used)

    return block, put_back
