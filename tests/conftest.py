import pytest

from symortho import sturm
from symortho.expand import _cached_rules, _verified_norms


@pytest.fixture(autouse=True)
def fresh_expand_memo():
    """Every test starts with no verified expand basis and no cached rule,
    so a test that watches the Gram check or the rules sees them built
    whatever ran before."""
    _verified_norms.cache_clear()
    _cached_rules.cache_clear()


@pytest.fixture
def entry_objects(monkeypatch):
    """The type names of the GramEntry and QuadResult objects sturm builds
    from here on, in the order built."""
    built = []

    class CountedEntry(sturm.GramEntry):
        def __init__(self, *args, **kwargs):
            built.append("GramEntry")
            super().__init__(*args, **kwargs)

    class CountedQuad(sturm.QuadResult):
        def __init__(self, *args, **kwargs):
            built.append("QuadResult")
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(sturm, "GramEntry", CountedEntry)
    monkeypatch.setattr(sturm, "QuadResult", CountedQuad)
    return built
