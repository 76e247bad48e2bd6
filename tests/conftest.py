"""Shared fixtures: one warm depth cache per grid resolution.

Warming a grid is the only expensive part of the suite (the thermal
integral runs once per state), so caches are session-scoped and shared
between module tests and the acceptance suite.
"""

from dataclasses import replace

import pytest

from meltpool_rl.environment import DepthCache, RewardConfig, StateGrid
from meltpool_rl.thermal import MaterialEnv

#: 2x2 grid whose (20000 W, 400 mm/min) state, flat id 2, melts deeper
#: than the 5 mm depth bracket; its other states are steady.  No
#: DepthCache can be built for it.
EDGE_GRID = StateGrid(n=2, p_min=1000.0, p_max=20000.0)


@pytest.fixture(scope="session")
def material():
    return MaterialEnv()


@pytest.fixture(scope="session")
def grid():
    return StateGrid()


@pytest.fixture(scope="session")
def reward_config():
    return RewardConfig()


@pytest.fixture(scope="session")
def cache_for(material, grid):
    """Factory returning a warm DepthCache for an n x n grid, memoized."""
    caches: dict[int, DepthCache] = {}

    def get(n: int) -> DepthCache:
        if n not in caches:
            caches[n] = DepthCache(material, replace(grid, n=n))
        return caches[n]

    return get


@pytest.fixture(scope="session")
def cache10(cache_for):
    return cache_for(10)
