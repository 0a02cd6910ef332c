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
