import importlib
import pkgutil

import pytest

import gelfand


def pytest_addoption(parser):
    parser.addoption(
        "--runslow", action="store_true", default=False, help="run slow sweeps"
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip = pytest.mark.skip(reason="needs --runslow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


def _clear_gelfand_caches():
    for info in pkgutil.iter_modules(gelfand.__path__):
        module = importlib.import_module(f"gelfand.{info.name}")
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


@pytest.fixture
def fresh_caches():
    """Clear every ``lru_cache`` in the gelfand modules before and after the test,
    so no later test reads a table built against a discarded basis."""
    _clear_gelfand_caches()
    yield
    _clear_gelfand_caches()
