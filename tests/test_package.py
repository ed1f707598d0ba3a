"""The package namespace: every exported name resolves, and removed names
stay removed."""

import importlib

import pytest

import sheafcount
from sheafcount import cli, errors, localization, qseries


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from sheafcount import *", namespace)
    assert len(set(sheafcount.__all__)) == len(sheafcount.__all__)
    for name in sheafcount.__all__:
        assert namespace[name] is getattr(sheafcount, name), name


def test_removed_names_are_gone(capsys):
    # eta24(terms) is goettsche_series(-24, terms - 1).shift(1); nothing
    # evaluates a rational function, so nothing raises PoleError; a
    # contribution is a Contribution of cancelled linear forms, so the
    # Poly and RationalFunction types and their module are gone; dt_p3(s, d)
    # is hilb_chern_integral(n) and p3_point_count(s, d) is n, for
    # n = s(s+3)/2 - d + 1, which only the CLI's p3 --s/--d spells;
    # s.to_pairs() is the exponent and coefficient strings of s.terms();
    # the release checks are tests/test_acceptance.py's alone, so neither
    # the check command nor the checks module ships
    for name in ("eta24", "PoleError", "Poly", "RationalFunction", "dt_p3",
                 "p3_point_count"):
        assert name not in sheafcount.__all__
        assert not hasattr(sheafcount, name)
    assert not hasattr(qseries, "eta24") and "eta24" not in qseries.__all__
    assert not hasattr(errors, "PoleError")
    assert not hasattr(localization, "dt_p3")
    assert not hasattr(localization, "p3_point_count")
    assert not hasattr(qseries.PuiseuxSeries, "to_pairs")
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("sheafcount.ratfunc")
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("sheafcount.checks")
    with pytest.raises(SystemExit) as exc:
        cli.main(["check"])
    err = capsys.readouterr().err
    assert exc.value.code == 1
    assert len(err.splitlines()) == 1 and "invalid choice: 'check'" in err
