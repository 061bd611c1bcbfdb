import polarfact


def test_every_export_resolves():
    assert [name for name in polarfact.__all__ if not hasattr(polarfact, name)] == []
