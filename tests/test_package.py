import stavskaya


def test_public_names_resolve():
    for name in stavskaya.__all__:
        assert hasattr(stavskaya, name), name
    namespace = {}
    exec("from stavskaya import *", namespace)
    assert set(stavskaya.__all__) <= set(namespace)
