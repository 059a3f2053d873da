"""The package's public names: an explicit list of functions and types."""

import types

import borsuk


def test_star_import_binds_no_module():
    namespace = {}
    exec("from borsuk import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(borsuk.__all__)
    assert not [name for name, value in namespace.items() if isinstance(value, types.ModuleType)]


def test_every_exported_name_resolves():
    for name in borsuk.__all__:
        assert getattr(borsuk, name) is not None
    assert len(set(borsuk.__all__)) == len(borsuk.__all__)


def test_partition_is_the_submodule():
    assert isinstance(borsuk.partition, types.ModuleType)
    assert borsuk.partition.verify_partition is borsuk.verify_partition
