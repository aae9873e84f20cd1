"""The package's public names load their submodule on first use."""

import ast
import importlib
from pathlib import Path

import pytest

import qpartitions
from qpartitions import enumeration

TESTS = Path(__file__).resolve().parent


def test_public_names_are_their_submodules_objects():
    assert len(qpartitions.__all__) == len(set(qpartitions.__all__)) == 62
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


def test_enumeration_holds_no_test_oracle():
    # the lexicographic generators live in tests/generators.py, so no
    # counter can count through the oracle that checks it
    moved = ("gen_partitions", "gen_overpartitions", "_gen_runs", "is_ubar_counted",
             "PartitionFilter", "EMPTY_FILTER")
    assert [name for name in moved if hasattr(enumeration, name)] == []


@pytest.mark.parametrize("oracle", ["generators.py", "coin_change.py"])
def test_test_oracles_import_nothing_from_the_package(oracle):
    tree = ast.parse((TESTS / oracle).read_text())
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += [node.module or "" for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)]
    assert [name for name in imported if name.split(".")[0] == "qpartitions"] == []
