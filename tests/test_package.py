import hpavsim


def test_all_names_resolve_once():
    assert len(hpavsim.__all__) == len(set(hpavsim.__all__))
    missing = [name for name in hpavsim.__all__ if not hasattr(hpavsim, name)]
    assert missing == []
    namespace = {}
    exec("from hpavsim import *", namespace)
    assert set(hpavsim.__all__) <= namespace.keys()
