"""The package namespace: every exported name resolves, and removed names
stay removed."""

import importlib

import pytest

import sheafcount
from sheafcount import errors, localization, qseries


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from sheafcount import *", namespace)
    assert len(set(sheafcount.__all__)) == len(sheafcount.__all__)
    for name in sheafcount.__all__:
        assert namespace[name] is getattr(sheafcount, name), name


def test_removed_names_are_gone():
    # eta24(terms) is goettsche_series(-24, terms - 1).shift(1); nothing
    # evaluates a rational function, so nothing raises PoleError; a
    # contribution is a Contribution of cancelled linear forms, so the
    # Poly and RationalFunction types and their module are gone; dt_p3(s, d)
    # is hilb_chern_integral(p3_point_count(s, d)); s.to_pairs() is the
    # exponent and coefficient strings of s.terms()
    for name in ("eta24", "PoleError", "Poly", "RationalFunction", "dt_p3"):
        assert name not in sheafcount.__all__
        assert not hasattr(sheafcount, name)
    assert not hasattr(qseries, "eta24") and "eta24" not in qseries.__all__
    assert not hasattr(errors, "PoleError")
    assert not hasattr(localization, "dt_p3")
    assert not hasattr(qseries.PuiseuxSeries, "to_pairs")
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("sheafcount.ratfunc")
