"""The package's public surface."""

import kwaring


def test_every_name_in_all_resolves():
    missing = [name for name in kwaring.__all__ if not hasattr(kwaring, name)]
    assert missing == []
