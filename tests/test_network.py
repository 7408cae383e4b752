"""Tests for the network parameter record."""
from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from d2dlab.network import NetworkConfig


def make(**kwargs) -> NetworkConfig:
    params = dict(n_users=16, s_cache=1, rate_c=1.0, reuse_k=4, cluster_size=4) | kwargs
    return NetworkConfig(**params)


@pytest.mark.parametrize("rate_c", [math.inf, math.nan, 0.0, -1.0])
def test_rate_must_be_positive_and_finite(rate_c):
    with pytest.raises(ValueError, match="rate_c"):
        make(rate_c=rate_c)


@settings(max_examples=200, deadline=None)
@given(rate_c=st.floats())
def test_any_float_rate_is_kept_or_rejected(rate_c):
    if 0 < rate_c < math.inf:
        assert make(rate_c=rate_c).cluster_rate == rate_c / 4
    else:
        with pytest.raises(ValueError):
            make(rate_c=rate_c)


@pytest.mark.parametrize("field", ["n_users", "s_cache", "reuse_k", "cluster_size"])
@pytest.mark.parametrize("value", [0, -3])
def test_counts_below_one_rejected(field, value):
    with pytest.raises(ValueError, match=f"{field} must be >= 1"):
        make(**{field: value})


def test_cluster_larger_than_network_rejected():
    with pytest.raises(ValueError, match="cluster_size 25 exceeds n_users 16"):
        make(cluster_size=25)
