"""Kernel tests for :mod:`repro.runtime.setops`.

Every kernel is checked against the obvious Python-set oracle —
``sorted(set(a) & set(b))`` and friends — on exhaustive small cases and
on fixed-seed randomized sweeps that cover both sides of every adaptive
dispatch threshold.  These tests (plus the engine differential suite)
are the safety net under any future kernel rewrite.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.runtime import setops
from repro.runtime.setops import (
    EMPTY,
    GALLOP_RATIO,
    MERGE_CUTOFF,
    gallop_search,
)


def arr(values) -> np.ndarray:
    return np.asarray(sorted(set(values)), dtype=setops.DTYPE)


def oracle_intersect(a, b):
    return sorted(set(a.tolist()) & set(b.tolist()))


def oracle_subtract(a, b):
    return sorted(set(a.tolist()) - set(b.tolist()))


def random_set(rng, size, universe) -> np.ndarray:
    return arr(rng.integers(0, universe, size=size).tolist())


# ----------------------------------------------------------------------
# Exhaustive small cases
# ----------------------------------------------------------------------

class TestExhaustiveSmall:
    """All pairs of subsets of {0..4}: 32 x 32 operand combinations."""

    SUBSETS = [
        arr(bits) for bits in (
            [v for v in range(5) if mask & (1 << v)]
            for mask in range(32)
        )
    ]

    def test_intersect_all_pairs(self):
        for a, b in itertools.product(self.SUBSETS, repeat=2):
            assert setops.intersect(a, b).tolist() == oracle_intersect(a, b)

    def test_subtract_all_pairs(self):
        for a, b in itertools.product(self.SUBSETS, repeat=2):
            assert setops.subtract(a, b).tolist() == oracle_subtract(a, b)

    def test_sizes_all_pairs(self):
        for a, b in itertools.product(self.SUBSETS, repeat=2):
            assert setops.intersect_size(a, b) == len(oracle_intersect(a, b))
            assert setops.subtract_size(a, b) == len(oracle_subtract(a, b))

    def test_bounded_all_pairs_all_bounds(self):
        for a, b in itertools.product(self.SUBSETS, repeat=2):
            for bound in range(-1, 7):
                inter = oracle_intersect(a, b)
                diff = oracle_subtract(a, b)
                assert setops.intersect_upto(a, b, bound).tolist() == [
                    x for x in inter if x < bound
                ]
                assert setops.intersect_from(a, b, bound).tolist() == [
                    x for x in inter if x > bound
                ]
                assert setops.subtract_upto(a, b, bound).tolist() == [
                    x for x in diff if x < bound
                ]
                assert setops.subtract_from(a, b, bound).tolist() == [
                    x for x in diff if x > bound
                ]


# ----------------------------------------------------------------------
# Edge cases
# ----------------------------------------------------------------------

class TestEdgeCases:
    def test_empty_operands(self):
        a = arr([1, 2, 3])
        assert setops.intersect(EMPTY, a).size == 0
        assert setops.intersect(a, EMPTY).size == 0
        assert setops.subtract(EMPTY, a).size == 0
        assert setops.subtract(a, EMPTY) is a  # zero-copy passthrough
        assert setops.intersect_size(EMPTY, a) == 0
        assert setops.subtract_size(a, EMPTY) == 3

    def test_disjoint_and_nested(self):
        lo, hi = arr(range(10)), arr(range(100, 110))
        assert setops.intersect(lo, hi).size == 0
        assert setops.subtract(lo, hi).tolist() == lo.tolist()
        inner, outer = arr([4, 5, 6]), arr(range(10))
        assert setops.intersect(inner, outer).tolist() == [4, 5, 6]
        assert setops.subtract(inner, outer).size == 0
        assert setops.subtract(outer, inner).tolist() == [0, 1, 2, 3, 7, 8, 9]

    def test_identical_operands(self):
        a = arr(range(0, 50, 3))
        assert setops.intersect(a, a).tolist() == a.tolist()
        assert setops.subtract(a, a).size == 0

    def test_results_are_duplicate_free_and_sorted(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a = random_set(rng, 60, 80)
            b = random_set(rng, 60, 80)
            for result in (setops.intersect(a, b), setops.subtract(a, b)):
                values = result.tolist()
                assert values == sorted(set(values))
                assert result.dtype == setops.DTYPE

    def test_inputs_never_mutated(self):
        rng = np.random.default_rng(8)
        a, b = random_set(rng, 40, 60), random_set(rng, 40, 60)
        a_copy, b_copy = a.copy(), b.copy()
        setops.intersect(a, b)
        setops.subtract(a, b)
        setops.intersect_upto(a, b, 30)
        setops.subtract_from(a, b, 30)
        assert np.array_equal(a, a_copy) and np.array_equal(b, b_copy)


# ----------------------------------------------------------------------
# Fixed-seed randomized sweeps across dispatch regimes
# ----------------------------------------------------------------------

# (|a|, |b|) profiles: skewed-small, skewed-large (gallop), balanced-small
# (gallop via MERGE_CUTOFF), balanced-large (merge), ratio boundary.
SIZE_PROFILES = [
    (4, 40),
    (16, 5000),
    (300, 300),
    (4000, 4200),
    (700, 700 * GALLOP_RATIO),
]


class TestRandomizedSweeps:
    @pytest.mark.parametrize("an,bn", SIZE_PROFILES)
    def test_intersect_and_subtract_match_oracle(self, an, bn):
        rng = np.random.default_rng(an * 100003 + bn)
        for trial in range(8):
            universe = max(an, bn) * 3
            a = random_set(rng, an, universe)
            b = random_set(rng, bn, universe)
            assert setops.intersect(a, b).tolist() == oracle_intersect(a, b)
            assert setops.subtract(a, b).tolist() == oracle_subtract(a, b)
            assert setops.intersect_size(a, b) == len(oracle_intersect(a, b))
            assert setops.subtract_size(a, b) == len(oracle_subtract(a, b))

    @pytest.mark.parametrize("an,bn", SIZE_PROFILES[:3])
    def test_bounded_variants_match_oracle(self, an, bn):
        rng = np.random.default_rng(an + bn * 7)
        universe = max(an, bn) * 3
        a = random_set(rng, an, universe)
        b = random_set(rng, bn, universe)
        for bound in rng.integers(0, universe, size=6).tolist():
            inter = oracle_intersect(a, b)
            diff = oracle_subtract(a, b)
            assert setops.intersect_upto(a, b, bound).tolist() == [
                x for x in inter if x < bound
            ]
            assert setops.intersect_from(a, b, bound).tolist() == [
                x for x in inter if x > bound
            ]
            assert setops.subtract_upto(a, b, bound).tolist() == [
                x for x in diff if x < bound
            ]
            assert setops.subtract_from(a, b, bound).tolist() == [
                x for x in diff if x > bound
            ]


class TestAdaptiveDispatch:
    """The size-ratio dispatch routes to the intended strategy."""

    def _delta(self, fn, a, b):
        before = setops.STATS.snapshot()
        fn(a, b)
        return setops.STATS.delta(before)

    def test_skewed_intersect_uses_gallop(self):
        rng = np.random.default_rng(0)
        a = random_set(rng, 16, 10**6)
        b = random_set(rng, 16 * GALLOP_RATIO * 4, 10**6)
        delta = self._delta(setops.intersect, a, b)
        assert delta["intersect_gallop"] == 1
        assert delta["intersect_merge"] == 0

    def test_balanced_large_intersect_uses_merge(self):
        rng = np.random.default_rng(1)
        n = MERGE_CUTOFF  # combined size 2*MERGE_CUTOFF, ratio 1
        a = random_set(rng, n, 10**6)
        b = random_set(rng, n, 10**6)
        delta = self._delta(setops.intersect, a, b)
        assert delta["intersect_merge"] == 1
        assert delta["intersect_gallop"] == 0

    def test_balanced_small_intersect_uses_gallop(self):
        a = arr(range(0, 60, 2))
        b = arr(range(0, 60, 3))
        delta = self._delta(setops.intersect, a, b)
        assert delta["intersect_gallop"] == 1

    def test_subtract_dispatch_both_ways(self):
        rng = np.random.default_rng(2)
        small = random_set(rng, 12, 10**6)
        large = random_set(rng, 12 * GALLOP_RATIO * 4, 10**6)
        assert self._delta(setops.subtract, small, large)[
            "subtract_gallop"] == 1
        balanced_a = random_set(rng, MERGE_CUTOFF, 10**6)
        balanced_b = random_set(rng, MERGE_CUTOFF, 10**6)
        assert self._delta(setops.subtract, balanced_a, balanced_b)[
            "subtract_merge"] == 1

    def test_bounded_and_size_counters(self):
        a, b = arr(range(20)), arr(range(10, 30))
        before = setops.STATS.snapshot()
        setops.intersect_upto(a, b, 15)
        setops.subtract_from(a, b, 5)
        setops.intersect_size(a, b)
        delta = setops.STATS.delta(before)
        assert delta["bounded"] == 2
        assert delta["size_only"] == 1

    def test_stats_reset_and_total(self):
        stats = setops.KernelStats()
        assert stats.total_calls == 0
        stats.intersect_gallop += 3
        assert stats.total_calls == 3
        stats.reset()
        assert stats.snapshot() == dict.fromkeys(setops.KernelStats.FIELDS, 0)


# ----------------------------------------------------------------------
# Scalar galloping primitive
# ----------------------------------------------------------------------

class TestGallopSearch:
    def test_matches_searchsorted_exhaustively(self):
        a = arr([2, 3, 5, 8, 13, 21, 34, 55])
        for target in range(-1, 60):
            for lo in range(len(a) + 1):
                expected = lo + int(np.searchsorted(a[lo:], target))
                assert gallop_search(a, target, lo) == expected

    def test_randomized_against_searchsorted(self):
        rng = np.random.default_rng(13)
        a = random_set(rng, 500, 5000)
        for target in rng.integers(-10, 5010, size=200).tolist():
            assert gallop_search(a, target) == int(np.searchsorted(a, target))

    def test_empty_and_bounds(self):
        assert gallop_search(EMPTY, 5) == 0
        a = arr([10, 20, 30])
        assert gallop_search(a, 5) == 0
        assert gallop_search(a, 35) == 3
        assert gallop_search(a, 20, lo=3) == 3
