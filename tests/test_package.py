"""The package's public export list."""

import npstruct


def test_every_exported_name_resolves():
    for name in npstruct.__all__:
        assert getattr(npstruct, name) is not None, name
    assert len(set(npstruct.__all__)) == len(npstruct.__all__)


def test_star_import_binds_exactly_the_export_list():
    namespace: dict = {}
    exec("from npstruct import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(npstruct.__all__)
