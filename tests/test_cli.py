"""Command line interface tests."""

import sys
import types

import pytest

import repro.experiments
from repro.analysis.cache import ResultCache
from repro.cli import main
from repro.experiments.common import ExperimentReport
from repro.registry import UnknownNameError
from repro.scenario import SchedulerSpec, parse_topology_spec


class TestTopologyParsing:
    def test_known_specs(self):
        assert parse_topology_spec("clique:6").build().n == 6
        assert parse_topology_spec("line:10").build().diameter() == 9
        assert parse_topology_spec("grid:3x4").build().n == 12
        assert parse_topology_spec("star:7").build().degree(0) == 6
        assert parse_topology_spec("ring:6").build().n == 6
        assert parse_topology_spec("star-of-cliques:3x4").build().n == 13
        assert parse_topology_spec("random:12:3").build().n == 12
        assert parse_topology_spec("geometric:10:1").build().n == 10
        torus = parse_topology_spec("torus:3x4").build()
        assert (torus.n, torus.degree(0)) == (12, 4)
        # Branching 2, depth 3: 1 + 2 + 4 + 8 nodes.
        assert parse_topology_spec("tree:2x3").build().n == 15
        # Two 4-cliques joined by a 2-node path.
        assert parse_topology_spec("barbell:4x2").build().n == 10

    def test_defaults(self):
        assert parse_topology_spec("clique").build().n == 8
        assert parse_topology_spec("grid").build().n == 16
        assert parse_topology_spec("torus").build().n == 16
        assert parse_topology_spec("tree").build().n == 15
        assert parse_topology_spec("barbell").build().n == 10

    def test_unknown_rejected(self):
        with pytest.raises(UnknownNameError):
            parse_topology_spec("hypercube:4").build()
        with pytest.raises(SystemExit):
            main(["run", "--topology", "hypercube:4"])


class TestSchedulerParsing:
    def test_known(self):
        assert SchedulerSpec("synchronous", f_ack=2.0).build(
            seed=0).f_ack == 2.0
        assert SchedulerSpec("random", f_ack=1.0).build(
            seed=5).f_ack == 1.0
        assert SchedulerSpec("max-delay", f_ack=3.0).build(
            seed=0).f_ack == 3.0

    def test_unknown_rejected(self):
        with pytest.raises(UnknownNameError):
            SchedulerSpec("quantum", f_ack=1.0).build(seed=0)


class TestRunCommand:
    def test_wpaxos_run_succeeds(self, capsys):
        code = main(["run", "--algorithm", "wpaxos", "--topology",
                     "line:6", "--scheduler", "synchronous"])
        assert code == 0
        out = capsys.readouterr().out
        assert "agreement=True" in out
        assert "decision time" in out

    def test_two_phase_needs_clique(self):
        with pytest.raises(SystemExit):
            main(["run", "--algorithm", "two-phase", "--topology",
                  "line:5"])

    def test_two_phase_on_clique(self, capsys):
        code = main(["run", "--algorithm", "two-phase", "--topology",
                     "clique:6", "--scheduler", "synchronous"])
        assert code == 0
        assert "termination=True" in capsys.readouterr().out

    def test_ben_or_on_clique(self, capsys):
        code = main(["run", "--algorithm", "ben-or", "--topology",
                     "clique:5", "--scheduler", "random",
                     "--seed", "3"])
        assert code == 0

    def test_trace_export(self, tmp_path, capsys):
        out_path = tmp_path / "t.json"
        code = main(["run", "--algorithm", "gatherall", "--topology",
                     "clique:4", "--scheduler", "synchronous",
                     "--trace-out", str(out_path)])
        assert code == 0
        assert out_path.exists()
        from repro.analysis.export import load_trace
        assert len(load_trace(str(out_path))) > 0

    def test_trace_level_spill_is_rejected(self, capsys):
        # The JSONL disk sink is gone; 'columnar' is the disk level.
        with pytest.raises(SystemExit) as exc:
            main(["run", "--algorithm", "gatherall", "--topology",
                  "clique:4", "--scheduler", "synchronous",
                  "--trace-level", "spill"])
        assert exc.value.code == 2
        assert "invalid choice: 'spill'" in capsys.readouterr().err

    def test_trace_level_decisions_runs(self, capsys):
        code = main(["run", "--algorithm", "wpaxos", "--topology",
                     "clique:5", "--scheduler", "synchronous",
                     "--trace-level", "decisions"])
        assert code == 0
        assert "termination=True" in capsys.readouterr().out

    def test_byzantine_run_with_adversary(self, capsys):
        code = main(["run", "--algorithm", "byzantine", "--topology",
                     "clique:11", "--scheduler", "synchronous",
                     "--fault", "byzantine:count=2,strategy=equivocate"])
        assert code == 0
        out = capsys.readouterr().out
        assert "byzantine(f=2" in out
        assert "agreement=True" in out
        assert "(among correct nodes)" in out

    def test_omission_run(self, capsys):
        code = main(["run", "--algorithm", "gatherall", "--topology",
                     "clique:5", "--scheduler", "synchronous",
                     "--fault", "omission:1", "--max-time", "30"])
        # The non-tolerant baseline legitimately loses termination;
        # the CLI reports it and exits nonzero.
        out = capsys.readouterr().out
        assert "omission" in out
        assert code == 1

    @pytest.mark.parametrize("fault,described", [
        # A bare value binds the family's first parameter; the rest
        # take the registry defaults (corrupt strategy, send omission).
        ("byzantine:2", "byzantine(f=2, strategies=['corrupt'])"),
        ("omission:1", "omission(send=['4'], receive=[])"),
        ("crash:node=0,time=1.5", "crash(f=1)"),
    ], ids=["byzantine", "omission", "crash"])
    def test_fault_flag_resolves_each_family(self, capsys, fault,
                                             described):
        main(["run", "--algorithm", "wpaxos", "--topology", "clique:5",
              "--scheduler", "synchronous", "--max-time", "30",
              "--fault", fault])
        assert f"fault model:    {described} (" in \
            capsys.readouterr().out

    def test_crash_flag_exports_scenario(self, tmp_path, capsys):
        from repro.analysis.export import load_scenario, trace_to_json
        from repro.macsim import CrashPlan
        from repro.scenario import (AlgorithmSpec, FaultSpec, Scenario,
                                    SchedulerSpec, TopologySpec)
        out_path = tmp_path / "t.json"
        code = main(["run", "--algorithm", "wpaxos", "--topology",
                     "clique:5", "--scheduler", "synchronous",
                     "--fault", "crash:node=2,time=1.5", "--trace-out",
                     str(out_path)])
        assert code == 0
        plans = load_scenario(str(out_path)).resolve() \
            .fault_model.crash_plans()
        assert [(p.node, p.time) for p in plans] == [(2, 1.5)]
        # Plans given as a list ride the embedded FaultSpec, None /
        # empty / subset ``still_delivered`` included, and re-drive
        # the same run.
        plans = [CrashPlan(2, 1.5), CrashPlan(3, 2.0, still_delivered=()),
                 CrashPlan(4, 0.5, still_delivered=(0, 1))]
        scenario = Scenario(
            algorithm=AlgorithmSpec("wpaxos"),
            topology=TopologySpec("clique", n=5),
            scheduler=SchedulerSpec("synchronous"),
            fault=FaultSpec("crash",
                            plans=[plan.to_dict() for plan in plans]))
        scenario_path = str(tmp_path / "s.json")
        scenario.dump(scenario_path)
        main(["run", "--scenario", scenario_path, "--trace-out",
              str(out_path)])
        loaded = load_scenario(str(out_path))
        assert loaded == scenario
        assert list(loaded.resolve().fault_model.crash_plans()) == plans
        assert (trace_to_json(loaded.simulate().trace)
                == trace_to_json(scenario.simulate().trace))

    def test_negative_fault_counts_rejected(self):
        for fault in ("byzantine:-2", "omission:count=-2"):
            with pytest.raises(SystemExit):
                main(["run", "--algorithm", "wpaxos", "--topology",
                      "clique:5", "--fault", fault])

    def test_non_numeric_crash_time_rejected(self):
        with pytest.raises(SystemExit, match="time must be a number"):
            main(["run", "--algorithm", "wpaxos", "--topology",
                  "clique:5", "--fault", "crash:node=2,time=soon"])

    @pytest.mark.parametrize("flag,value", [
        ("--crash", "2:1.5"), ("--byzantine", "2"),
        ("--byz-strategy", "equivocate"), ("--omission", "1"),
    ], ids=["crash", "byzantine", "byz-strategy", "omission"])
    def test_old_fault_flags_are_rejected(self, capsys, flag, value):
        # ``--fault NAME[:K=V,...]`` is the one fault flag.
        with pytest.raises(SystemExit) as exc:
            main(["run", "--algorithm", "wpaxos", "--topology",
                  "clique:5", flag, value])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_crash_run_keeps_validity(self, capsys):
        # GatherAll on clique:2 decides node 0's input, which no other
        # node shares; crashing node 0 after delivery must not flip
        # validity (crash faults are benign: lying_nodes is empty).
        code = main(["run", "--algorithm", "gatherall", "--topology",
                     "clique:2", "--scheduler", "synchronous",
                     "--fault", "crash:node=0,time=1.5"])
        assert code == 0
        assert "validity=True" in capsys.readouterr().out

    def test_model_violation_exits_nonzero(self, tmp_path, capsys,
                                           monkeypatch):
        # A trusted scheduler's plans skip validation, so only the
        # post-run audit can catch one that acks before delivering.
        # The violating run still exports its trace for inspection.
        from repro.analysis.export import load_scenario
        from repro.macsim.schedulers import (SynchronousScheduler,
                                             UniformPlan)

        def ack_first(self, *, sender, message, start_time, neighbors):
            boundary = self.next_boundary(start_time)
            return UniformPlan(neighbors, boundary + 0.5, boundary)

        monkeypatch.setattr(SynchronousScheduler, "plan", ack_first)
        out_path = tmp_path / "violation.json"
        code = main(["run", "--algorithm", "wpaxos", "--topology",
                     "clique:4", "--scheduler", "synchronous",
                     "--trace-out", str(out_path)])
        assert code == 1
        out = capsys.readouterr().out
        assert "invariants:     VIOLATED" in out
        assert "before non-faulty neighbor 1 received" in out
        assert f"trace written:  {out_path}" in out
        assert load_scenario(str(out_path)).algorithm.name == "wpaxos"


UNKNOWN_E99 = ("unknown experiment ids: E99 (known: "
               + ", ".join(f"E{n}" for n in range(1, 15)) + ")")


class TestRegenCommand:
    def test_runs_a_driver(self, capsys):
        code = main(["regen", "E7", "--fresh"])
        assert code == 0
        out = capsys.readouterr().out
        assert "E7 PASSED" in out

    def test_unknown_id_exits_naming_the_known_ones(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["regen", "E7", "E99"])
        assert str(exc.value) == UNKNOWN_E99
        assert capsys.readouterr().out == ""

    def test_markdown_flag(self, capsys):
        code = main(["regen", "E7", "--fresh", "--markdown"])
        assert code == 0
        out = capsys.readouterr().out
        assert "### E7" in out

    def test_no_ids_runs_every_driver_in_table_order(self, stand_ins,
                                                     capsys):
        assert main(["regen", "--fresh"]) == 0
        assert [eid for eid, _ in stand_ins] == ["FA", "FB", "FC"]
        out = capsys.readouterr().out
        assert (out.index("=> FA PASSED") < out.index("=> FB PASSED")
                < out.index("=> FC PASSED"))

    def test_only_manifest_drivers_get_cache_and_workers(
            self, stand_ins, tmp_path, capsys):
        assert main(["regen", "FB", "FA", "--cache", str(tmp_path),
                     "--workers", "1"]) == 0
        assert [eid for eid, _ in stand_ins] == ["FB", "FA"]
        assert stand_ins[0][1] == {}
        kwargs = stand_ins[1][1]
        assert sorted(kwargs) == ["cache", "workers"]
        assert isinstance(kwargs["cache"], ResultCache)
        assert kwargs["workers"] == 1
        out, err = capsys.readouterr()
        assert "cache: FA/*: 0 hits / 0 misses (0 cells)" in out
        assert "cache: FB" not in out
        assert err == ""

    @pytest.mark.parametrize("command", ["experiments", "demo"])
    def test_removed_runners_are_usage_errors(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


@pytest.fixture
def stand_ins(monkeypatch):
    """Replaces the driver table with three stand-in drivers, FA and FC
    defining ``manifest()``; returns the log of ``(id, run kwargs)``."""
    calls = []
    table = {}
    for eid, manifest_driver in (("FA", True), ("FB", False),
                                 ("FC", True)):
        module = types.ModuleType(f"stand_in_{eid.lower()}")

        def run(eid=eid, **kwargs):
            calls.append((eid, kwargs))
            return ExperimentReport(eid, "stand-in", "none", ["x"])

        module.run = run
        if manifest_driver:
            module.manifest = lambda: None
        monkeypatch.setitem(sys.modules, module.__name__, module)
        table[eid] = module.__name__
    monkeypatch.setattr(repro.experiments, "EXPERIMENTS", table)
    return calls


class TestRegistryCatalogues:
    def test_list_algorithms(self, capsys):
        assert main(["run", "--list-algorithms"]) == 0
        out = capsys.readouterr().out
        for name in ("two-phase", "wpaxos", "gatherall", "flood-paxos",
                     "ben-or", "byzantine"):
            assert name in out

    def test_list_topologies_and_schedulers(self, capsys):
        assert main(["run", "--list-topologies",
                     "--list-schedulers"]) == 0
        out = capsys.readouterr().out
        for name in ("clique", "grid", "random", "geometric",
                     "synchronous", "max-delay", "jittered"):
            assert name in out

    def test_unknown_names_list_the_registry(self):
        with pytest.raises(UnknownNameError) as err:
            parse_topology_spec("hypercube:4").build()
        assert "registered:" in str(err.value)
        assert "clique" in str(err.value)
        with pytest.raises(SystemExit) as err:
            main(["run", "--topology", "hypercube:4"])
        assert "registered:" in str(err.value)
        assert "clique" in str(err.value)
        with pytest.raises(UnknownNameError) as err:
            SchedulerSpec("quantum", f_ack=1.0).build(seed=0)
        assert "registered:" in str(err.value)
        assert "synchronous" in str(err.value)

    def test_topology_kv_params(self):
        dense = parse_topology_spec("random:n=12,density=0.6,seed=1").build()
        sparse = parse_topology_spec("random:n=12,density=0.1,seed=1").build()
        assert dense.n == sparse.n == 12
        assert dense.edge_count > sparse.edge_count


class TestScenarioFlags:
    def test_dump_then_run_scenario(self, tmp_path, capsys):
        path = str(tmp_path / "scenario.json")
        assert main(["run", "--algorithm", "two-phase", "--topology",
                     "clique:5", "--scheduler", "synchronous",
                     "--seed", "3", "--dump-scenario", path]) == 0
        capsys.readouterr()
        from repro.scenario import Scenario
        scenario = Scenario.from_file(path)
        assert scenario.algorithm.name == "two-phase"
        assert scenario.topology.params["n"] == 5
        assert scenario.seed == 3
        assert main(["run", "--scenario", path]) == 0
        out = capsys.readouterr().out
        assert "algorithm:      two-phase" in out
        assert "agreement=True" in out

    def test_dump_scenario_to_stdout(self, capsys):
        assert main(["run", "--dump-scenario", "-"]) == 0
        out = capsys.readouterr().out
        assert '"schema": "scenario/v1"' in out
        assert '"wpaxos"' in out

    def test_scenario_flag_overrides(self, tmp_path, capsys):
        path = str(tmp_path / "scenario.json")
        assert main(["run", "--algorithm", "wpaxos", "--topology",
                     "clique:4", "--scheduler", "synchronous",
                     "--dump-scenario", path]) == 0
        capsys.readouterr()
        assert main(["run", "--scenario", path, "--seed", "9",
                     "--topology", "line:5"]) == 0
        out = capsys.readouterr().out
        assert "topology:       line:5" in out

    def test_cli_flags_equal_scenario_file(self, tmp_path, capsys):
        """The same run through flags and through a scenario file
        must produce identical output (shared resolution path)."""
        argv = ["run", "--algorithm", "wpaxos", "--topology",
                "grid:3x3", "--scheduler", "random", "--seed", "5"]
        path = str(tmp_path / "scenario.json")
        assert main(argv + ["--dump-scenario", path]) == 0
        capsys.readouterr()
        assert main(argv) == 0
        direct = capsys.readouterr().out
        assert main(["run", "--scenario", path]) == 0
        via_file = capsys.readouterr().out
        assert direct == via_file


class TestReplayCommand:
    def test_replay_verifies_byte_identity(self, tmp_path, capsys):
        trace = str(tmp_path / "trace.json")
        assert main(["run", "--algorithm", "wpaxos", "--topology",
                     "clique:5", "--scheduler", "random", "--seed",
                     "2", "--fault", "crash:node=1,time=1.0",
                     "--trace-out",
                     trace]) == 0
        capsys.readouterr()
        assert main(["replay", trace]) == 0
        out = capsys.readouterr().out
        assert "replay matched" in out
        assert "byte-identical" in out

    def test_replay_detects_divergence(self, tmp_path, capsys):
        import dataclasses
        from repro.analysis.export import (iter_saved_records,
                                           load_scenario, save_trace)
        from repro.macsim import ColumnarSink
        trace = str(tmp_path / "trace.json")
        assert main(["run", "--algorithm", "wpaxos", "--topology",
                     "clique:4", "--scheduler", "synchronous",
                     "--trace-out", trace]) == 0
        capsys.readouterr()
        # Tamper: save the run with its first record shifted, under
        # the original scenario.
        tampered = ColumnarSink()
        for i, rec in enumerate(iter_saved_records(trace)):
            if i == 0:
                rec = dataclasses.replace(rec, time=rec.time + 0.5)
            tampered.append_serialized(rec)
        save_trace(tampered, trace, scenario=load_scenario(trace))
        tampered.cleanup()
        assert main(["replay", trace]) == 1
        assert "DIVERGED at record 0" in capsys.readouterr().out

    def test_replay_without_scenario_errors(self, tmp_path):
        import pytest as _pytest
        from repro.analysis.export import save_trace
        from repro.scenario import (AlgorithmSpec, Scenario,
                                    TopologySpec)
        result = Scenario(algorithm=AlgorithmSpec("wpaxos"),
                          topology=TopologySpec("clique", n=4)
                          ).simulate()
        path = str(tmp_path / "bare.json")
        save_trace(result.trace, path)
        with _pytest.raises(SystemExit):
            main(["replay", path])

    def test_replay_of_a_missing_file_exits_naming_it(self, tmp_path):
        path = str(tmp_path / "absent.json")
        with pytest.raises(SystemExit) as exc:
            main(["replay", path])
        assert str(exc.value.code).startswith(f"{path}: ")
        assert "No such file" in str(exc.value.code)

    @pytest.mark.parametrize("indent,schema", [
        (None, "'telemetry/v1'"), (2, "None"),
    ], ids=["single-line", "indented"])
    def test_replay_of_a_telemetry_snapshot_exits_naming_it(
            self, tmp_path, capsys, indent, schema):
        import json
        snapshot = str(tmp_path / "tel.json")
        assert main(["run", "--algorithm", "wpaxos", "--topology",
                     "clique:4", "--telemetry", snapshot]) == 0
        capsys.readouterr()
        with open(snapshot) as fh:
            document = json.load(fh)
        path = str(tmp_path / "snapshot.json")
        with open(path, "w") as fh:
            json.dump(document, fh, indent=indent)
        with pytest.raises(SystemExit) as exc:
            main(["replay", path])
        assert exc.value.code == (
            f"{path}: not a schema-6 columnar-chunks trace export: "
            f"{path} (schema {schema}, format None)")


class TestReviewRegressions:
    def test_bad_shorthand_is_a_usage_error(self):
        with pytest.raises(SystemExit):
            main(["run", "--topology", "grid:5"])

    def test_f_ack_override_keeps_other_scheduler_params(self, tmp_path,
                                                         capsys):
        from repro.scenario import (AlgorithmSpec, Scenario,
                                    SchedulerSpec, TopologySpec)
        path = str(tmp_path / "s.json")
        Scenario(algorithm=AlgorithmSpec("wpaxos"),
                 topology=TopologySpec("clique", n=4),
                 scheduler=SchedulerSpec("random", f_ack=4.0, seed=9,
                                         min_fraction=0.5)).dump(path)
        assert main(["run", "--scenario", path, "--f-ack", "2.0"]) == 0
        out = capsys.readouterr().out
        assert "f_ack=2.0" in out
        assert "min_fraction=0.5" in out

    def test_f_ack_on_knobless_scheduler_errors(self, tmp_path):
        from repro.scenario import (AlgorithmSpec, Scenario,
                                    SchedulerSpec, TopologySpec)
        path = str(tmp_path / "s.json")
        Scenario(algorithm=AlgorithmSpec("wpaxos"),
                 topology=TopologySpec("clique", n=4),
                 scheduler=SchedulerSpec(
                     "bernoulli-unreliable", p=1.0,
                     inner=SchedulerSpec("synchronous"))).dump(path)
        with pytest.raises(SystemExit):
            main(["run", "--scenario", path, "--f-ack", "2.0"])

    def test_scheduler_switch_inherits_file_f_ack(self, tmp_path,
                                                  capsys):
        from repro.scenario import (AlgorithmSpec, Scenario,
                                    SchedulerSpec, TopologySpec)
        path = str(tmp_path / "s.json")
        Scenario(algorithm=AlgorithmSpec("wpaxos"),
                 topology=TopologySpec("clique", n=4),
                 scheduler=SchedulerSpec("random", f_ack=4.0)).dump(path)
        assert main(["run", "--scenario", path, "--scheduler",
                     "max-delay"]) == 0
        out = capsys.readouterr().out
        assert "MaxDelayScheduler" in out
        assert "f_ack=4.0" in out

    def test_scheduler_without_f_ack_knob(self):
        sched = SchedulerSpec("staggered").build(seed=0)
        assert type(sched).__name__ == "StaggeredScheduler"

    def test_knobless_scheduler_from_plain_flags(self, capsys):
        assert main(["run", "--algorithm", "two-phase", "--topology",
                     "clique:5", "--scheduler", "staggered"]) == 0
        assert "StaggeredScheduler" in capsys.readouterr().out
        with pytest.raises(SystemExit):
            main(["run", "--algorithm", "two-phase", "--topology",
                  "clique:5", "--scheduler", "staggered", "--f-ack",
                  "2.0"])
