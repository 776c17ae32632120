"""The package's export list."""

import dynseg


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from dynseg import *", namespace)  # raises on a name that does not resolve
    assert sorted(set(dynseg.__all__)) == sorted(dynseg.__all__)
    assert namespace.keys() - {"__builtins__"} == set(dynseg.__all__)
