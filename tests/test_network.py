"""Tests for the network parameter record."""
from __future__ import annotations

import math
import re

import numpy as np
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


@pytest.mark.parametrize("field", ["n_users", "s_cache", "reuse_k", "cluster_size"])
@pytest.mark.parametrize("value", [2.5, np.float64(2.0), "4", True, False])
def test_non_integer_counts_rejected(field, value):
    """A float count would reach the trial kernel and fail there with numpy's TypeError;
    a bool, which Python makes an int, would run as 1 or 0."""
    with pytest.raises(ValueError, match=re.escape(f"{field} must be an integer, got {value!r}")):
        make(**{field: value})


def test_numpy_integer_counts_accepted():
    config = make(n_users=np.int64(16), s_cache=np.int32(2), reuse_k=np.int16(4),
                  cluster_size=np.uint8(4))
    assert config == make(s_cache=2)
    assert config.cluster_rate == 0.25


def test_cluster_larger_than_network_rejected():
    with pytest.raises(ValueError, match="cluster_size 25 exceeds n_users 16"):
        make(cluster_size=25)
