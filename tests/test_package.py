"""Public surface of the package."""

import hazeflow


def test_every_exported_name_resolves():
    missing = [name for name in hazeflow.__all__ if not hasattr(hazeflow, name)]
    assert missing == []
