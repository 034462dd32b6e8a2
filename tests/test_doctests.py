"""The docstring examples of every weylkit module run and hold."""

import doctest
import importlib
import pkgutil

import pytest

import weylkit

MODULES = sorted(info.name for info in pkgutil.iter_modules(weylkit.__path__, "weylkit."))


@pytest.mark.parametrize("name", ["weylkit", *MODULES])
def test_module_doctests(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0


def test_charring_examples_are_collected():
    # the module example and the packed product's example
    assert doctest.testmod(importlib.import_module("weylkit.charring")).attempted >= 2
