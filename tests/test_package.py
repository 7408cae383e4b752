"""The package's public surface: every exported name resolves."""
from __future__ import annotations

import d2dlab


def test_every_exported_name_resolves():
    missing = [name for name in d2dlab.__all__ if not hasattr(d2dlab, name)]
    assert missing == []
    assert len(set(d2dlab.__all__)) == len(d2dlab.__all__)
    namespace: dict = {}
    exec("from d2dlab import *", namespace)
    assert set(d2dlab.__all__) <= set(namespace)
