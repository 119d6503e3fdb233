import math
import os
from pathlib import Path

# as the command does (cli.run): numpy's OpenBLAS starts no thread pool to
# spin on a CPU beside the tests
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np
import pytest

import cayleyphase
from cayleyphase import BoltzmannParams, Couplings, StateVector
from cayleyphase._trajectory_py import CYCLE, FIXED

# the CLI tests start fresh interpreters: they must import the same package
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (str(Path(cayleyphase.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")))
)

# b^4 = 9.9e30: three fixed ratios, the two smallest 400x apart and both
# below 1e-14; TINY_RATIOS_EXACT are the roots of the slice cubic solved to
# 60 digits
TINY_RATIOS = Couplings(2.5645435717473593, 2.8075571395478782, 0.15735458936494023)
TINY_RATIOS_EXACT = (1.5980862893751724252e-17, 6.3280166699261682895e-15, 1.4166947065883585375e45)

# one point per trajectory phase: ferromagnetic, multi-root, paramagnetic,
# 2-commensurate and 4-commensurate
DIAGNOSE_POINTS = ((1.0, 0.15, 0.6), (0.25, 0.9, 1.0), (0.1, 0.05, 3.0), (0.0, -math.log(2.0), 1.0), (1.0, -0.6, 0.3))

# the trajectory kernels' hard cases, each from a scan's seeded start at the
# production constants: name -> (couplings (j1, j2, T), program seed, max_iter,
# today's outcome (kind, period, iterations)). Both kernels must give it bit for
# bit; a kernel change that moves an outcome updates its row here
SPIRAL = (1.0, -0.42105263157894735, 1.8157894736842106)
HARD_KERNEL_CASES = {
    # a 5-cycle that the period-1 test alone would miss, at point (6, 17) of the
    # grid j2_over_j1:-0.8:0.4:20 x temperature:0.25:2:20 (j1 = 1)
    "spiral-grid-point-seed-1": ((1.0, -0.8 + 1.2 * 6 / 19, 0.25 + 1.75 * 17 / 19), 1, 20000, (CYCLE, 5, 231)),
    # the same spiral at the point as diagnose is given it: both seeds end on
    # 5-cycles around the stable slice fixed point
    "spiral-seed-1": (SPIRAL, 1, 20000, (CYCLE, 5, 231)),
    "spiral-seed-2": (SPIRAL, 2, 20000, (CYCLE, 5, 236)),
    # cold and ordered, b^4 = 3.1e69: a fixed direction after 4 steps, with
    # components far below TOL still moving
    "cold-ordered-seed-0": ((1.0, 1.2, 0.03), 0, 20000, (FIXED, 1, 4)),
    "cold-ordered-seed-1": ((1.0, 1.2, 0.03), 1, 20000, (FIXED, 1, 4)),
    # the cold corner: 4-cycles with components underflowed to 0.0
    "underflow-seed-0": ((1.0, -2.0, 0.03), 0, 20000, (CYCLE, 4, 200)),
    "underflow-seed-1": ((1.0, -2.0, 0.03), 1, 20000, (CYCLE, 4, 200)),
    # extreme weights: a = 1.4e101, b^4 = 7.4e16
    "extreme-weights-seed-0": ((232.9288032071753, 9.71014349621855, 1.0), 0, 20000, (FIXED, 1, 4)),
}


def maxdiff(u, v) -> float:
    return max(abs(a - b) for a, b in zip(u, v))


def normalized(u: StateVector):
    m = u.max_norm()
    return tuple(c / m for c in u)


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


@pytest.fixture
def params_symmetric_cycle():
    # a = 1, b = 0.5: two-cycle regime (a^2 = 1 sits inside the star window)
    return BoltzmannParams(1.0, 0.5)


@pytest.fixture
def params_three_roots():
    # b = 2 (b^4 = 16) with the level at the geometric centre of the window
    from oracles import multi_root_window

    lo, hi = multi_root_window(16.0)
    level = math.sqrt(lo * hi)
    a = (level * 2.0**6) ** -0.5
    return BoltzmannParams(a, 2.0)
