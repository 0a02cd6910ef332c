import pytest

from sympwalk.walk import exact_form_chain


@pytest.fixture(scope="session")
def chain22():
    return exact_form_chain(2, 2)


@pytest.fixture(scope="session")
def chain23():
    return exact_form_chain(2, 3)


@pytest.fixture(scope="session")
def chain32():
    return exact_form_chain(3, 2)


@pytest.fixture(scope="session")
def chain24():
    return exact_form_chain(2, 4)


@pytest.fixture
def cold_caches():
    """Empty every lru cache of the label, eigenvalue and bound modules, so a
    test sees the memoised path filled from scratch whatever ran before."""
    from sympwalk import bounds, combinat, spectral

    for module in (combinat, spectral, bounds):
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
