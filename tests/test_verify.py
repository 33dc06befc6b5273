"""Verification suite runner: reports, determinism, and suite coverage."""

import json

import pytest

from kappatwist.hopf import TwistContext
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
