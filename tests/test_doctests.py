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
    # the module example, the packed product's, the packing's, and the
    # accumulator's, in which a cancelling key disappears
    module = importlib.import_module("weylkit.charring")
    assert doctest.testmod(module).attempted >= 3
    named = {test.name for test in doctest.DocTestFinder().find(module) if test.examples}
    assert {"weylkit.charring._add_scaled", "weylkit.charring.CharElt.__mul__"} <= named
