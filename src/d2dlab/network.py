"""Network-level parameters shared by the analysis and the simulator."""
from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

# An integer as text: ASCII digits with an optional sign. int() alone also
# takes digit-group underscores and non-ASCII digits ("1_0", "٢").
_INTEGER = re.compile(r"[+-]?[0-9]+")


def _check_integer(name: str, value: int, least: float = -math.inf) -> int:
    """value as an int. Anything but an int or numpy integer (a bool is
    neither, though Python makes it an int), or a value below least (by
    default none is), raises a ValueError that names the argument."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return int(value)


def _parse_integer(text: str) -> int:
    """text, stripped, as an int: ASCII digits with an optional sign, of at
    most the digits int() converts, or a ValueError."""
    field = text.strip()
    if not _INTEGER.fullmatch(field):
        raise ValueError(f"invalid integer {text!r}")
    return int(field)


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
    (int or numpy integer), each at least 1. cluster_size is not checked
    against n_users: the analysis reads no user count, and the simulator
    takes both from the layout that build_grid pads to whole clusters.
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

    @property
    def cluster_rate(self) -> float:
        """Rate available to an active cluster under the reuse scheme."""
        return self.rate_c / self.reuse_k
