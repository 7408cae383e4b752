"""Network-level parameters shared by the analysis and the simulator."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def _check_integer(name: str, value: int, least: float = -math.inf) -> int:
    """value as an int. Anything but an int or numpy integer (a bool is
    neither, though Python makes it an int), or a value below least (by
    default none is), raises a ValueError that names the argument."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return int(value)


@dataclass(frozen=True)
class NetworkConfig:
    """Clustered D2D network parameters.

    Attributes
    ----------
    n_users : int
        Number of users N placed in the network.
    s_cache : int
        Cache slots per device (files a device can hold).
    rate_c : float
        In-cluster D2D link rate C, bits/s/Hz.
    reuse_k : int
        TDMA reuse factor K; every active cluster runs at rate C/K.
    cluster_size : int
        Users per cluster g_c.

    The four counts n_users, s_cache, reuse_k and cluster_size are integers
    (int or numpy integer), each at least 1.
    """

    n_users: int
    s_cache: int
    rate_c: float
    reuse_k: int
    cluster_size: int

    def __post_init__(self) -> None:
        for name in ("n_users", "s_cache", "reuse_k", "cluster_size"):
            _check_integer(name, getattr(self, name), 1)
        if not 0 < self.rate_c < math.inf:
            raise ValueError(f"rate_c must be positive and finite, got {self.rate_c}")
        if self.cluster_size > self.n_users:
            raise ValueError(
                f"cluster_size {self.cluster_size} exceeds n_users {self.n_users}"
            )

    @property
    def cluster_rate(self) -> float:
        """Rate available to an active cluster under the reuse scheme."""
        return self.rate_c / self.reuse_k
