"""Tests for shared domain types, config validation, and RNG substreams."""

import numpy as np
import pytest

from dcbf.core import (
    ComplexSignal,
    ConfigError,
    FrameLayout,
    MeshConfig,
    NodeState,
    Segment,
    substream,
    validate_config,
)


class TestComplexSignal:
    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            ComplexSignal(np.array([1.0, np.nan]), 1.0)

    def test_rejects_inf(self):
        with pytest.raises(ValueError, match="NaN|Inf"):
            ComplexSignal(np.array([np.inf + 0j]), 1.0)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            ComplexSignal(np.zeros(4, complex), 0.0)


class TestFrameLayout:
    def test_extract_roundtrip(self):
        layout = FrameLayout((Segment("a", 0, 3), Segment("b", 5, 2)), 8)
        x = np.arange(8)
        assert list(layout.extract(x, "a")) == [0, 1, 2]
        assert list(layout.extract(x, "b")) == [5, 6]

    def test_rejects_overlap(self):
        with pytest.raises(ValueError, match="overlap"):
            FrameLayout((Segment("a", 0, 3), Segment("b", 2, 2)), 8)

    def test_rejects_overflow(self):
        with pytest.raises(ValueError, match="total_length"):
            FrameLayout((Segment("a", 0, 10),), 8)

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError, match="unique"):
            FrameLayout((Segment("a", 0, 1), Segment("a", 2, 1)), 8)


class TestValidateConfig:
    def test_default_table_values_accepted(self):
        cfg = MeshConfig(n_nodes=3, sample_rate_hz=2e6, amble_len=8192, guard_len=256)
        assert validate_config(cfg) is cfg

    def test_zero_nodes_rejected(self):
        with pytest.raises(ConfigError, match="n_nodes"):
            validate_config(MeshConfig(n_nodes=0))

    def test_nonpositive_lengths_rejected(self):
        with pytest.raises(ConfigError, match="amble_len"):
            validate_config(MeshConfig(amble_len=0))
        with pytest.raises(ConfigError, match="guard_len"):
            validate_config(MeshConfig(guard_len=-1))


class TestSubstreams:
    def test_same_key_same_stream(self):
        a = substream(42, "n1", "noise").standard_normal(16)
        b = substream(42, "n1", "noise").standard_normal(16)
        assert np.array_equal(a, b)

    def test_distinct_purposes_are_independent(self):
        a = substream(42, "n1", "noise").standard_normal(64)
        b = substream(42, "n1", "payload_bits").standard_normal(64)
        assert not np.array_equal(a, b)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.5

    def test_construction_order_irrelevant(self):
        # deriving n2's stream before or after n1's must not change either
        first = substream(7, "n2", "noise").standard_normal(8)
        _ = substream(7, "n1", "noise")
        second = substream(7, "n2", "noise").standard_normal(8)
        assert np.array_equal(first, second)

    def test_distinct_seeds_differ(self):
        a = substream(1, "n1", "noise").standard_normal(8)
        b = substream(2, "n1", "noise").standard_normal(8)
        assert not np.array_equal(a, b)


class TestNodeState:
    def test_walking_node_needs_a_stream(self):
        with pytest.raises(ValueError, match="rng"):
            NodeState(node_id="n", phase_walk_var_per_s=0.1)
        assert NodeState(node_id="n").rng is None  # a node that never walks draws nothing
        NodeState(node_id="n", phase_walk_var_per_s=0.1, rng=substream(0, "n", "phase_walk"))
