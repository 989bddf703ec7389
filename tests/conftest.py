import pytest

from symortho.expand import _verified_norms


@pytest.fixture(autouse=True)
def fresh_expand_memo():
    """Every test starts with no verified expand basis, so a test that
    watches the Gram check sees it run whatever ran before."""
    _verified_norms.cache_clear()
