"""The package's public name list."""

import pdmham


def test_every_public_name_resolves():
    missing = [name for name in pdmham.__all__ if not hasattr(pdmham, name)]
    assert not missing


def test_public_names_are_unique():
    assert len(set(pdmham.__all__)) == len(pdmham.__all__)
