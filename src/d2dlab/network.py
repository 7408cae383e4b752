"""Network-level parameters shared by the analysis and the simulator."""
from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["NetworkConfig"]


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
    """

    n_users: int
    s_cache: int
    rate_c: float
    reuse_k: int
    cluster_size: int

    def __post_init__(self) -> None:
        if self.n_users < 1:
            raise ValueError(f"n_users must be >= 1, got {self.n_users}")
        if self.s_cache < 1:
            raise ValueError(f"s_cache must be >= 1, got {self.s_cache}")
        if not 0 < self.rate_c < math.inf:
            raise ValueError(f"rate_c must be positive and finite, got {self.rate_c}")
        if self.reuse_k < 1:
            raise ValueError(f"reuse_k must be >= 1, got {self.reuse_k}")
        if self.cluster_size < 1:
            raise ValueError(f"cluster_size must be >= 1, got {self.cluster_size}")
        if self.cluster_size > self.n_users:
            raise ValueError(
                f"cluster_size {self.cluster_size} exceeds n_users {self.n_users}"
            )

    @property
    def cluster_rate(self) -> float:
        """Rate available to an active cluster under the reuse scheme."""
        return self.rate_c / self.reuse_k
