import regiondeblur


def test_every_exported_name_resolves():
    assert [name for name in regiondeblur.__all__ if not hasattr(regiondeblur, name)] == []
    namespace = {}
    exec("from regiondeblur import *", namespace)
    assert set(regiondeblur.__all__) <= set(namespace)
