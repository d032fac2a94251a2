"""Experiment driver smoke tests: the drivers that are not manifest
drivers regenerate and pass.

The heavier drivers are run with reduced sweeps where parameters
allow; the assertions are the experiments' own pass/fail conclusions.
The manifest drivers (E1/E2/E3/E8/E9/E11/E12/E13) run at full size in
``tests/test_regen_golden.py``, which pins each rendered table -- its
``=> EN PASSED`` line and conclusions included -- byte for byte.
"""

import hashlib

import pytest

from repro.experiments import (e4_time_lower_bound, e5_anonymous,
                               e6_unknown_n, e7_flp)
from repro.experiments.common import ExperimentReport

#: sha256 of the default ``run().render()`` of the two crash-plan
#: experiments (E8's and E11's are pinned in test_regen_golden.py).
E7_RENDER_SHA256 = (
    "c6944473488d2977ae1e49d18792ad8a2807c1f31ff044de1b88d66a30d328ad")
E10_RENDER_SHA256 = (
    "22e9474811232c0f7e887a8f768547447dec0153300b0b9b31f0800ed1a44ebc")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestReportPlumbing:
    def test_report_render(self):
        report = ExperimentReport(
            experiment_id="EX", title="t", paper_claim="c",
            headers=["a"], rows=[[1]])
        report.conclude("fine")
        text = report.render()
        assert "EX PASSED" in text
        assert "[ok] fine" in text
        md = report.render_markdown()
        assert md.startswith("### EX")

    def test_report_failure(self):
        report = ExperimentReport(
            experiment_id="EX", title="t", paper_claim="c",
            headers=["a"])
        report.conclude("broken", ok=False)
        assert not report.passed
        assert "EX FAILED" in report.render()


class TestExperimentDrivers:
    def test_e4(self):
        report = e4_time_lower_bound.run(diameters=(4, 8))
        assert report.passed, report.render()

    def test_e5(self):
        report = e5_anonymous.run(parameters=((2, 0),))
        assert report.passed, report.render()

    def test_e6(self):
        report = e6_unknown_n.run(diameters=(3, 5))
        assert report.passed, report.render()

    def test_e7(self):
        report = e7_flp.run()
        assert report.passed, report.render()
        # The FLP witness runs crash plans through the engine: its
        # whole report is pinned byte for byte.
        assert _sha256(report.render()) == E7_RENDER_SHA256


class TestExtensionExperiments:
    def test_e10(self):
        from repro.experiments import e10_randomized
        report = e10_randomized.run(configs=((3, 1), (5, 2)),
                                    seeds=range(3))
        assert report.passed, report.render()

    def test_e10_default_render_is_pinned(self):
        # Ben-Or under crash plans, the default sweep, byte for byte.
        from repro.experiments import e10_randomized
        assert _sha256(e10_randomized.run().render()) == E10_RENDER_SHA256
