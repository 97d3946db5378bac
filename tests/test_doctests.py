"""Run the ``>>>`` examples in every gelfand module's docstrings."""

import doctest
import importlib
import pkgutil

import pytest

import gelfand

MODULES = sorted(m.name for m in pkgutil.iter_modules(gelfand.__path__, "gelfand."))


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0, name


def test_docstring_examples_exist():
    total = sum(doctest.testmod(importlib.import_module(name)).attempted for name in MODULES)
    assert total >= 15
