"""Tests for placement policies."""

import pytest
from hypothesis import given, strategies as st

from repro.cluster import Machine, packed_placement, spread_placement
from repro.errors import AllocationError, ConfigurationError


class TestSpread:
    def test_one_rank_per_node(self):
        machine = Machine(node_count=4)
        placement = spread_placement(machine, 4)
        assert sorted(placement.values()) == [0, 1, 2, 3]

    def test_skips_down_nodes(self):
        machine = Machine(node_count=4)
        machine.fail_node(1, now=0.0)
        placement = spread_placement(machine, 3)
        assert 1 not in placement.values()

    def test_insufficient_nodes(self):
        with pytest.raises(AllocationError):
            spread_placement(Machine(node_count=2), 3)

    def test_rejects_zero_ranks(self):
        with pytest.raises(ConfigurationError):
            spread_placement(Machine(node_count=2), 0)


class TestPacked:
    def test_fills_cores_first(self):
        machine = Machine(node_count=2, cores_per_node=4)
        placement = packed_placement(machine, 6)
        assert [placement[r] for r in range(6)] == [0, 0, 0, 0, 1, 1]

    def test_needs_enough_nodes(self):
        machine = Machine(node_count=1, cores_per_node=2)
        with pytest.raises(AllocationError):
            packed_placement(machine, 3)

    @given(st.integers(min_value=1, max_value=64))
    def test_every_rank_placed(self, ranks):
        machine = Machine(node_count=8, cores_per_node=16)
        placement = packed_placement(machine, ranks)
        assert set(placement) == set(range(ranks))

