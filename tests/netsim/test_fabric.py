"""Tests for the fabric cost oracle."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.netsim import AlphaBetaModel, Fabric


class TestDeterministicFabric:
    def test_delivery_delay_composition(self):
        fabric = Fabric(model=AlphaBetaModel(latency=1e-6, bandwidth=1e9))
        assert fabric.delivery_delay(0, 1, 1000) == pytest.approx(1e-6 + 1e-6)

    def test_loopback_cheaper(self):
        fabric = Fabric()
        assert fabric.delivery_delay(2, 2, 0) < fabric.delivery_delay(2, 3, 0)

    def test_loopback(self):
        fabric = Fabric(model=AlphaBetaModel(latency=1e-6))
        assert fabric.wire_latency(3, 3) == 1e-6 * 0.1

    def test_one_hop_everywhere(self):
        fabric = Fabric(model=AlphaBetaModel(latency=1e-6))
        assert fabric.wire_latency(0, 99) == 1e-6
        assert fabric.wire_latency(0, 1) == fabric.wire_latency(7, 2)

    def test_sender_busy_includes_cpu_overhead(self):
        model = AlphaBetaModel(latency=1e-6, bandwidth=1e9, cpu_overhead=5e-7)
        fabric = Fabric(model=model)
        assert fabric.sender_busy_time(0, 1, 0) == pytest.approx(5e-7)

    def test_same_node_skips_rendezvous(self):
        model = AlphaBetaModel(
            latency=1e-3, bandwidth=1e9, eager_threshold=10, cpu_overhead=0.0
        )
        fabric = Fabric(model=model)
        big = 1000
        assert fabric.sender_busy_time(0, 0, big) < fabric.sender_busy_time(0, 1, big)


class TestJitter:
    def test_requires_rng(self):
        with pytest.raises(ConfigurationError):
            Fabric(jitter=0.1)

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            Fabric(jitter=-0.1, rng=np.random.default_rng(0))

    def test_unit_mean_noise(self):
        fabric = Fabric(jitter=0.3, rng=np.random.default_rng(7))
        base = AlphaBetaModel().latency
        samples = [fabric.delivery_delay(0, 1, 0) for _ in range(4000)]
        assert np.mean(samples) == pytest.approx(base, rel=0.05)

    def test_zero_jitter_is_exact(self):
        fabric = Fabric()
        first = fabric.delivery_delay(0, 1, 512)
        assert all(fabric.delivery_delay(0, 1, 512) == first for _ in range(5))
