import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from gridrepair.harness import GenParams, generate_random, load_instance
from gridrepair.lp import load_rhs
from gridrepair.oracle import TooLarge

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
MAX_SUBSET_LINES = 12


@pytest.fixture(scope="session")
def two_island():
    return load_instance(FIXTURES / "two_island.json")


@pytest.fixture(scope="session")
def fork():
    return load_instance(FIXTURES / "fork.json")


@pytest.fixture(scope="session")
def graham():
    return load_instance(FIXTURES / "graham_m3.json")


@pytest.fixture(scope="session")
def feeder123():
    return load_instance(FIXTURES / "feeder123.json")


@pytest.fixture(scope="session")
def fixtures_dir():
    return FIXTURES


@st.composite
def instances(draw, min_nodes=2, max_nodes=9, zero_times=True):
    """Random generated instances; the seed is the shrink target."""
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    nodes = draw(st.integers(min_value=min_nodes, max_value=max_nodes))
    switch_probability = draw(st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0]))
    params = GenParams(
        seed=seed,
        nodes=(nodes, nodes),
        switch_probability=switch_probability,
        repair_time=(0 if zero_times else 1, 10),
    )
    return generate_random(params)


@dataclass(frozen=True)
class SeparationResult:
    subset: frozenset[str]
    violation: float


def exhaustive_separation(
    c: dict[str, float], p: dict[str, float], m: int
) -> SeparationResult:
    """Exact maximizer of the load-inequality violation over all subsets.

    Enumerates every one of the 2^n - 1 non-empty subsets; n is capped at
    12.  Serves as the ground truth for the prefix separation routine.
    """
    lines = sorted(p)
    n = len(lines)
    if n > MAX_SUBSET_LINES:
        raise TooLarge(n, MAX_SUBSET_LINES)
    if n == 0:
        raise ValueError("no lines to separate over")
    pv = np.array([p[j] for j in lines])
    pc = np.array([p[j] * c[j] for j in lines])
    masks = np.arange(1, 2**n, dtype=np.uint32)
    bits = (masks[:, None] >> np.arange(n)) & 1  # (2^n - 1, n)
    totals = bits @ pv
    violations = totals * totals / (2.0 * m) + bits @ (pv * pv) / 2.0 - bits @ pc
    best = int(np.argmax(violations))
    subset = frozenset(lines[k] for k in range(n) if bits[best, k])
    # recompute in exact scalar arithmetic for the reported value
    value = load_rhs((p[j] for j in subset), m) - math.fsum(p[j] * c[j] for j in subset)
    return SeparationResult(subset=subset, violation=value)
