"""The package's public names load their submodule on first use."""

import importlib

import pytest

import qpartitions


def test_public_names_are_their_submodules_objects():
    assert len(qpartitions.__all__) == len(set(qpartitions.__all__)) == 65
    for name in qpartitions.__all__:
        module = importlib.import_module(f"qpartitions.{qpartitions._SUBMODULE[name]}")
        assert getattr(qpartitions, name) is getattr(module, name), name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from qpartitions import *", namespace)
    for name in qpartitions.__all__:
        assert namespace[name] is getattr(qpartitions, name), name


def test_dir_lists_public_names():
    listed = dir(qpartitions)
    assert set(qpartitions.__all__) <= set(listed)
    assert "__version__" in listed


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        qpartitions.no_such_name
