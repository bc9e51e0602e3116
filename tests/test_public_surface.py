"""The package root's __all__ lists exactly the public names bound there,
so deleting a function cannot leave a dangling export behind."""

import types

import oodhg


def test_all_is_sorted_without_duplicates():
    assert oodhg.__all__ == sorted(set(oodhg.__all__))


def test_every_entry_resolves():
    assert [name for name in oodhg.__all__ if not hasattr(oodhg, name)] == []


def test_every_public_name_bound_at_the_root_is_listed():
    public = {name for name, value in vars(oodhg).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert sorted(public - set(oodhg.__all__)) == []
