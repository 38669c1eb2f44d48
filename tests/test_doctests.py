"""Every docstring example in the package runs and prints what it shows."""

import doctest
import importlib
import pkgutil

import pytest

import pipedreams

MODULES = ["pipedreams"] + ["pipedreams." + m.name
                            for m in pkgutil.iter_modules(pipedreams.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0, result
