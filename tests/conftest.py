"""Shared fixtures."""

import inspect
import textwrap

import pytest


@pytest.fixture
def mutate(monkeypatch):
    """``mutate(module, name, old, new)`` replaces ``module.name`` for one
    test by a function compiled from its source with the one occurrence of
    ``old`` made ``new``: a one-line defect that a test must catch."""

    def apply(module, name, old, new):
        source = textwrap.dedent(inspect.getsource(getattr(module, name)))
        assert source.count(old) == 1, f"{old!r} is not one expression of {name}"
        namespace = dict(vars(module))
        exec(compile(source.replace(old, new), module.__file__, "exec"), namespace)
        monkeypatch.setattr(module, name, namespace[name])

    return apply
