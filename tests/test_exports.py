"""The public names of the package (``isgw.__all__``)."""

import isgw


def test_every_exported_name_resolves_once_and_survives_a_star_import():
    names = isgw.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(isgw, name)]
    assert not missing
    namespace = {}
    exec("from isgw import *", namespace)  # raises on a name that does not resolve
    assert all(namespace[name] is getattr(isgw, name) for name in names)
