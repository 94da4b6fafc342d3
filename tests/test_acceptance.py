"""Acceptance gate: every criterion at its stated tolerance.

Each test runs one criterion from sheardisp.acceptance and prints its
PASS/FAIL line (visible with pytest -s or on failure); `sheardisp
validate` runs the same registry from the command line.
"""

import math

import pytest

from sheardisp import acceptance
from sheardisp.acceptance import Check, CriterionResult


def test_check_record():
    assert not Check("x", math.nan, 1.0).passed
    assert Check("x", 0.5, 0.5).passed and Check("x", 0.5, 0.5).ratio == 1.0
    assert not Check("x", 3.0, 2.0).passed and Check("x", 3.0, 2.0).ratio == 1.5
    assert Check("x", -0.1, 0.1).passed      # 2 - order at order 2.1
    assert not Check("x", 1.0, 0.0).passed and Check("x", 1.0, 0.0).ratio == math.inf
    line = str(Check("KS", 0.0125, 0.05))
    assert line == "KS 0.0125 <= 0.05 (0.25)" and line.isascii()


def test_criterion_result_derives_pass_from_checks():
    ok, bad = Check("a", 0.0, 1.0), Check("b", math.nan, 1.0)
    assert CriterionResult("n", [ok], 0.0).passed
    assert not CriterionResult("n", [ok, bad], 0.0).passed
    assert not CriterionResult("n", [], 0.0).passed   # a criterion that measured nothing
    assert CriterionResult("n", [ok, bad], 1.5).line() == "FAIL  n  [1.5s]  a 0 <= 1 (0.00); b nan <= 1 (nan)"


@pytest.mark.parametrize("key", list(acceptance.CRITERIA))
def test_criterion(key):
    result = acceptance.run(key)
    print(result.line())
    assert result.passed, result.line()


def test_moment_check_reads_the_density(monkeypatch):
    # criterion 8 integrates pdf_deterministic itself, so a density 1e-3 off
    # in its exponent z^{1/beta - 1} fails the moment check
    from sheardisp import invariant_measure
    exact = invariant_measure.pdf_deterministic
    monkeypatch.setattr(invariant_measure, "pdf_deterministic",
                        lambda z, beta: exact(z, beta) * z**1e-3)
    moments, *others = acceptance.run("8").checks
    assert moments.label.startswith("mu(N) vs quadrature") and not moments.passed, str(moments)
    assert all(c.passed for c in others)
