import fiberflow


def test_every_exported_name_resolves():
    missing = [name for name in fiberflow.__all__ if not hasattr(fiberflow, name)]
    assert missing == []
    assert len(set(fiberflow.__all__)) == len(fiberflow.__all__)
    namespace = {}
    exec("from fiberflow import *", namespace)
    assert set(fiberflow.__all__) <= set(namespace)
