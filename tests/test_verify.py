"""Verification suite runner: reports, determinism, and suite coverage."""

import json
from fractions import Fraction

import pytest

from kappatwist import verify
from kappatwist.hopf import TwistContext
from kappatwist.poincare import CASE_II_LAM
from kappatwist.scalars import UsageError
from kappatwist.verify import SUITE_NAMES, run_suite


def test_all_suites_pass_quick():
    report = run_suite("all", order=2, quick=True)
    assert report.passed
    names = [c.name for c in report.checks]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_each_suite_runs(suite):
    report = run_suite(suite, order=2, quick=True)
    assert report.passed, [c.name for c in report.checks if not c.passed]


def test_unknown_suite():
    with pytest.raises(UsageError):
        run_suite("bogus")


def test_non_integer_order():
    with pytest.raises(UsageError, match="integer"):
        run_suite("all", order=2.5)


def test_json_deterministic_given_seed():
    a = json.dumps(run_suite("algebra", order=2, seed=3, quick=True).to_dict(), sort_keys=True)
    b = json.dumps(run_suite("algebra", order=2, seed=3, quick=True).to_dict(), sort_keys=True)
    assert a == b


def test_text_rendering_mentions_result():
    report = run_suite("twist", order=2, quick=True)
    text = report.render_text()
    assert "result: PASS" in text
    assert all(c.name in text for c in report.checks)


def test_kappa_residual_names_the_failing_pairs(monkeypatch):
    # xhat1 + 1 breaks exactly [xhat0, xhat1] and [xhat1, xhat0]
    xhat = TwistContext.xhat

    def broken(ctx, mu):
        return xhat(ctx, mu) + ctx.one if mu == 1 else xhat(ctx, mu)

    monkeypatch.setattr(TwistContext, "xhat", broken)
    report = run_suite("poincare", order=2, quick=True)
    failed = {c.name: c.residual for c in report.checks if not c.passed}
    assert failed == {
        "kappa-coordinate-commutators": (
            "[xhat,xhat] structure failed: [xhat0,xhat1], [xhat1,xhat0]"
        )
    }


@pytest.mark.parametrize(
    "lam, extra, case_ii",
    [(None, 1, True), (Fraction(1, 2), 0, True), (Fraction(1, 3), 0, False)],
    ids=["sym", "1/2", "1/3"],
)
def test_poincare_suite_builds_a_case_ii_context_only_when_needed(
    monkeypatch, lam, extra, case_ii
):
    """Case (ii) is checked at lam = 1/2 in a context of its own only when
    the suite's is symbolic; at 1/2 the suite's context serves, and at any
    other rational lam case (ii) is left out."""
    built = []

    class Counted(TwistContext):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self.lam)

    monkeypatch.setattr(verify, "TwistContext", Counted)
    report = run_suite("poincare", order=2, lam=lam)
    assert report.passed
    assert built == [lam] + [CASE_II_LAM] * extra
    names = {c.name for c in report.checks}
    assert ("boost-coproduct-case-ii" in names) is case_ii
