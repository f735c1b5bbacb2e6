import cifusion


def test_every_exported_name_resolves():
    missing = [name for name in cifusion.__all__ if not hasattr(cifusion, name)]
    assert missing == []
    assert len(set(cifusion.__all__)) == len(cifusion.__all__)


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from cifusion import *", namespace)
    assert set(cifusion.__all__) <= set(namespace)
