import sympwalk


def test_public_names_resolve_sorted_and_star_import():
    names = sympwalk.__all__
    for name in names:
        assert getattr(sympwalk, name) is not None, name
    assert len(set(names)) == len(names)
    assert names == sorted(names)
    namespace = {}
    exec("from sympwalk import *", namespace)
    assert set(names) <= set(namespace)
