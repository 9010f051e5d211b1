"""Shared generators for randomized tests. Everything is seeded per test."""

from contextlib import contextmanager

import numpy as np
import pytest

from setgames import (GameSpec, GroundSet, MobiusTransform, Network, SetFunction, equilibrium,
                      oracles, zeta)


@pytest.fixture
def unseeded(monkeypatch):
    """Every solve starts from the 1x1 game of the empty attack and defense,
    so small games take several rounds of the double oracle."""
    monkeypatch.setattr(equilibrium, "SEED_CELLS", 0)


@contextmanager
def split_tables():
    """Every oracle table splits over its support's components, however small
    the whole listing. The last prepared tables are dropped on entry and on
    exit, so no table built under one rule is served under the other."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracles, "WHOLE_CELLS", 0)
        oracles.prepare.cache_clear()
        try:
            yield
        finally:
            oracles.prepare.cache_clear()


@pytest.fixture
def split():
    """:func:`split_tables` for the whole test."""
    with split_tables():
        yield


def random_set_function(rng, n, *, cap=None, scale=1.0):
    """Dense random values on all subsets of size <= cap (empty set stays 0)."""
    g = GroundSet(n)
    cap = n if cap is None else cap
    entries = {}
    for mask in range(1, 1 << n):
        if mask.bit_count() <= cap:
            entries[mask] = float(rng.normal()) * scale
    return SetFunction(g, entries)


def sparse_set_function(rng, n, *, terms, scale=1.0, cap=None):
    """Set function built from a few random interaction coefficients."""
    g = GroundSet(n)
    coeffs = {}
    for _ in range(terms):
        mask = int(rng.integers(1, 1 << n))
        if cap is not None and mask.bit_count() > cap:
            continue
        coeffs[mask] = float(rng.normal()) * scale
    return zeta(MobiusTransform(g, coeffs), max_size=cap), coeffs


def random_game(rng, n, c, k, *, sparse=False, costs=True):
    g = GroundSet(n)
    if sparse:
        benefit, _ = sparse_set_function(rng, n, terms=max(2, n), cap=c)
    else:
        benefit = random_set_function(rng, n, cap=c)
    zero = SetFunction(g)
    if costs:
        cost_a = random_set_function(rng, n, cap=c, scale=0.3)
        cost_d = random_set_function(rng, n, cap=k, scale=0.3)
    else:
        cost_a = cost_d = zero
    return GameSpec(ground=g, benefit=benefit, attacker_cost=cost_a,
                    defender_cost=cost_d, attacker_cap=c, defender_cap=k)


def additive_game(rng, n, c, k, *, costs=True):
    """Game whose utilities are sums of per-target weights."""
    g = GroundSet(n)

    def additive(values, cap):
        entries = {}
        for mask in range(1, 1 << n):
            if mask.bit_count() <= cap:
                entries[mask] = float(sum(values[i] for i in range(n) if mask >> i & 1))
        return SetFunction(g, entries)

    benefit = additive(rng.normal(size=n), c)
    if costs:
        cost_a = additive(np.abs(rng.normal(size=n)) * 0.3, c)
        cost_d = additive(np.abs(rng.normal(size=n)) * 0.3, k)
    else:
        cost_a = cost_d = SetFunction(g)
    return GameSpec(ground=g, benefit=benefit, attacker_cost=cost_a,
                    defender_cost=cost_d, attacker_cap=c, defender_cap=k)


def random_graph(rng, n, p=0.45):
    edges = []
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            if rng.random() < p:
                edges.append((u, v))
    return Network(node_count=n, edges=tuple(edges))
