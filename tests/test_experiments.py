"""Experiment driver smoke tests: every E-module regenerates and passes.

The heavier drivers are run with reduced sweeps where parameters
allow; the assertions are the experiments' own pass/fail conclusions.
"""

import hashlib

import pytest

from repro.experiments import (e1_single_hop, e2_wpaxos_scaling,
                               e3_baselines, e4_time_lower_bound,
                               e5_anonymous, e6_unknown_n, e7_flp,
                               e8_ablations)
from repro.experiments.common import ExperimentReport

#: sha256 of the default ``run().render()`` of the two crash-plan
#: experiments.
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
    def test_e1(self):
        report = e1_single_hop.run(n_sweep=(1, 3, 8, 21),
                                   f_sweep=(1.0, 2.0, 4.0),
                                   random_seeds=range(2))
        assert report.passed, report.render()

    def test_e2(self):
        report = e2_wpaxos_scaling.run(
            line_diameters=(4, 9, 19), clique_sizes=(4, 8, 16),
            f_sweep=(1.0, 2.0))
        assert report.passed, report.render()

    def test_e3(self):
        report = e3_baselines.run(arm_sweep=((4, 6), (6, 8), (8, 10)))
        assert report.passed, report.render()

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

    def test_e8(self):
        report = e8_ablations.run()
        assert report.passed, report.render()


class TestExtensionExperiments:
    def test_e9(self):
        from repro.experiments import e9_unreliable_links
        report = e9_unreliable_links.run(probs=(0.0, 0.25, 1.0),
                                         seeds=range(3))
        assert report.passed, report.render()

    def test_e10(self):
        from repro.experiments import e10_randomized
        report = e10_randomized.run(configs=((3, 1), (5, 2)),
                                    seeds=range(3))
        assert report.passed, report.render()

    def test_e10_default_render_is_pinned(self):
        # Ben-Or under crash plans, the default sweep, byte for byte.
        from repro.experiments import e10_randomized
        assert _sha256(e10_randomized.run().render()) == E10_RENDER_SHA256

    def test_e11(self):
        from repro.experiments import e11_fprog
        report = e11_fprog.run(f_progs=(8.0, 2.0, 1.0))
        assert report.passed, report.render()

    def test_e12(self):
        from repro.experiments import e12_byzantine
        report = e12_byzantine.run(clique_n=11, multihop_n=12)
        assert report.passed, report.render()
        # The past-the-bound row must actually record the violation.
        assert any("violated" in c for c in report.conclusions)
