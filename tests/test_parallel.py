import concurrent.futures

import pytest

from sperner.parallel import parallel_map


class NoPool(Exception):
    pass


@pytest.fixture
def no_pool(monkeypatch):
    """Make building a process pool raise NoPool; the keyword arguments
    of each attempt are appended to the list the fixture returns."""
    calls = []

    def refuse(*args, **kwargs):
        calls.append(kwargs)
        raise NoPool

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    return calls


@pytest.mark.parametrize("workers", [1, 2])
def test_results_keep_input_order(workers):
    assert parallel_map(abs, [-3, 1, -2, 5, -4], workers) == [3, 1, 2, 5, 4]


@pytest.mark.parametrize("workers", [1, 2])
def test_empty_input(workers):
    assert parallel_map(abs, [], workers) == []


def test_one_item_builds_no_pool(no_pool):
    assert parallel_map(abs, [-7], workers=2) == [7]


def test_two_items_build_a_pool(no_pool):
    with pytest.raises(NoPool):
        parallel_map(abs, [-7, 8], workers=2)
    # forked whatever the global start method, so workers inherit memory
    [kwargs] = no_pool
    assert kwargs["mp_context"].get_start_method() == "fork"
