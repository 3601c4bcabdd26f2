import csv
import json
import logging
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import adder_mac, adder_mac3, parallel_mac
from macresolve import cli
from macresolve.cli import main
from macresolve.probcore import channel_to_json, load_channel_file
from macresolve.probcore import Alphabet, Dist, MacChannel


# a file each command writes only after it has evaluated every point
OUTPUT = {"simulate": "report.json", "sweep": "sweep.csv"}


@pytest.fixture
def adder_spec(tmp_path):
    path = tmp_path / "adder.json"
    path.write_text(json.dumps(channel_to_json(
        adder_mac(), [Dist.bernoulli(0.5), Dist.bernoulli(0.5)])))
    return str(path)


@pytest.fixture
def parallel_spec(tmp_path):
    path = tmp_path / "parallel.json"
    path.write_text(json.dumps(channel_to_json(
        parallel_mac(), [Dist.bernoulli(0.3), Dist.bernoulli(0.6)])))
    return str(path)


@pytest.fixture
def adder3_spec(tmp_path):
    path = tmp_path / "adder3.json"
    path.write_text(json.dumps(channel_to_json(
        adder_mac3(), [Dist.bernoulli(p) for p in (0.2, 0.3, 0.4)])))
    return str(path)


class TestRegionCommand:
    def test_adder_case1(self, adder_spec, tmp_path, capsys):
        rc = main(["region", "--channel", adder_spec,
                   "--out-dir", str(tmp_path / "r")])
        assert rc == 0
        obj = json.loads((tmp_path / "r" / "region.json").read_text())
        assert obj["case"] == "case1"
        assert len(obj["constraints"]) == 3
        assert (tmp_path / "r" / "region.csv").exists()

    def test_parallel_case2(self, parallel_spec, tmp_path):
        rc = main(["region", "--channel", parallel_spec,
                   "--out-dir", str(tmp_path / "r")])
        assert rc == 0
        obj = json.loads((tmp_path / "r" / "region.json").read_text())
        assert obj["case"] == "case2"

    def test_malformed_spec_diagnostic(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"inputs": [2, 2], "output": 3,
                                   "transition": [[1, 0, 0]]}))
        rc = main(["region", "--channel", str(bad), "--out-dir", str(tmp_path)])
        assert rc == 1
        assert "transition" in capsys.readouterr().err

    @pytest.mark.parametrize("field,value", [
        ("inputs", 5), ("input_dists", 5), ("output", None)])
    def test_mistyped_spec_field_named(self, tmp_path, capsys, field, value):
        spec = channel_to_json(adder_mac(), [Dist.bernoulli(0.5)] * 2)
        spec[field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(spec))
        rc = main(["region", "--channel", str(bad), "--out-dir",
                   str(tmp_path / "r")])
        err = capsys.readouterr().err
        assert rc == 1
        assert f"error: channel spec field ['{field}'] " in err
        assert "Traceback" not in err
        assert not (tmp_path / "r").exists()

    def test_unknown_log_level_named(self, adder_spec, tmp_path, capsys,
                                     monkeypatch):
        monkeypatch.setenv("RESOLVE_LOG", "verbose")
        rc = main(["region", "--channel", adder_spec,
                   "--out-dir", str(tmp_path / "r")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.splitlines() == [
            "error: RESOLVE_LOG='verbose' is not a log level; use one of "
            "DEBUG, INFO, WARNING, ERROR, CRITICAL"]
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("command", ["region", "simulate"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["input_dists", "transition"])
    def test_non_finite_spec_rejected(self, tmp_path, capsys, command, value,
                                      field):
        spec = channel_to_json(adder_mac(), [Dist.bernoulli(0.5)] * 2)
        spec[field][1][0] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(spec))
        out = tmp_path / "o"
        argv = [command, "--channel", str(bad), "--out-dir", str(out)]
        if command == "simulate":
            argv += ["--idealized", "--n", "4", "--trials", "1000"]
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 1
        assert "error:" in err and "non-finite" in err
        assert "Traceback" not in err
        assert not out.exists()


class TestBuildCommand:
    def test_infeasible_target_exit_2(self, adder_spec, tmp_path, capsys):
        rc = main(["build", "--channel", adder_spec, "--out-dir",
                   str(tmp_path / "b"), "--n", "8", "--k", "2",
                   "--target-r1", "3.0"])
        assert rc == 2
        assert "[0.5, 1.0]" in capsys.readouterr().err

    def test_clamped_analysis_plan_refused(self, adder_spec, tmp_path, capsys):
        # at desk-scale N the analysis constants that clamp the hashes also
        # ask for more fresh bits than a block holds (75 > 8 here): one error
        # line says both, and no asymptotic-only warning comes before it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["build", "--channel", adder_spec, "--out-dir",
                       str(tmp_path / "b"), "--n", "8", "--k", "2",
                       "--xi", "0.05"])
        assert rc == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: stream x draws 75 fresh bits")
        assert "analysis constants also clamp hash lengths" in line
        assert "rerun with --idealized" in line
        assert not (tmp_path / "b" / "descriptor.json").exists()

    def test_idealized_clamp_names_the_constants(self, parallel_spec, tmp_path,
                                                 capsys):
        # eps = 2 (0.005 + 0.005) clamps every hash at N=4 although --idealized
        # is set (Z = (X, Y) leaves nothing to recycle), yet the fresh bits fit
        rc = main(["build", "--channel", parallel_spec, "--out-dir",
                   str(tmp_path / "b"), "--mode", "case2", "--n", "4", "--k", "2",
                   "--idealized", "--ideal-xi", "0.005", "--ideal-delta", "0.005"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "--ideal-xi 0.005" in err and "--ideal-delta 0.005" in err
        assert "rerun with --idealized" not in err

    def test_plan_simulate_refuses_writes_no_descriptor(self, parallel_spec,
                                                        tmp_path, capsys):
        # eps = 2 (5 + 5) asks for 84 fresh bits per 4-symbol block
        rc = main(["build", "--channel", parallel_spec, "--out-dir",
                   str(tmp_path / "b"), "--mode", "case2", "--n", "4", "--k", "2",
                   "--idealized", "--ideal-xi", "5", "--ideal-delta", "5"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error: stream x draws 84 fresh bits" in err and "N = 4" in err
        assert not (tmp_path / "b" / "descriptor.json").exists()

    def test_rebuild_byte_identical(self, adder_spec, tmp_path):
        args = ["build", "--channel", adder_spec, "--n", "8", "--k", "2",
                "--idealized", "--seed", "5"]
        assert main(args + ["--out-dir", str(tmp_path / "b1")]) == 0
        assert main(args + ["--out-dir", str(tmp_path / "b2")]) == 0
        a = (tmp_path / "b1" / "descriptor.json").read_bytes()
        b = (tmp_path / "b2" / "descriptor.json").read_bytes()
        assert a == b

    def test_target_r1_descriptor_records_split(self, adder_spec, tmp_path):
        rc = main(["build", "--channel", adder_spec, "--out-dir",
                   str(tmp_path / "b"), "--n", "8", "--k", "2", "--idealized",
                   "--target-r1", "0.5"])
        assert rc == 0
        desc = json.loads((tmp_path / "b" / "descriptor.json").read_text())
        assert desc["split"]["eps"] == 0.0

    def test_beta_reaches_every_profile_and_the_build_hash(self, adder_spec,
                                                           tmp_path):
        descs, hashes = [], []
        for flags in ([], ["--beta", "0.3"]):
            argv = ["build", "--channel", adder_spec, "--out-dir",
                    str(tmp_path / f"b{len(flags)}"), "--n", "8", "--k", "2",
                    "--idealized", *flags]
            assert main(argv) == 0
            descs.append(json.loads(
                (tmp_path / f"b{len(flags)}" / "descriptor.json").read_text()))
            hashes.append(cli._config_from_args(
                cli.build_parser().parse_args(argv)).build_hash())
        assert [p["beta"] for p in descs[1]["profiles"].values()] == [0.3] * 3
        assert [p["beta"] for p in descs[0]["profiles"].values()] == [0.25] * 3
        assert hashes[0] != hashes[1]


class TestSimulateCommand:
    def test_exhaustive_mode_no_ci(self, adder_spec, tmp_path):
        rc = main(["simulate", "--channel", adder_spec, "--out-dir",
                   str(tmp_path / "s"), "--n", "4", "--k", "1", "--idealized",
                   "--trials", "2000"])
        assert rc == 0
        rep = json.loads((tmp_path / "s" / "report.json").read_text())
        assert rep["mode"] == "exhaustive"
        rows = {m[0]: m for m in rep["metrics"]}
        assert rows["joint_output_tv"][2] is None  # no CI in exact mode
        assert rep["config_hash"] and rep["descriptor_hash"]

    def test_key_space_engine_admits_three_blocks_at_n4(self, adder_spec, tmp_path):
        # the joint-state carry of this code had 2^12 * 81^2 > 2^24 entries; the
        # key-space carry has 2^7 * 81^2
        rc = main(["simulate", "--channel", adder_spec, "--out-dir",
                   str(tmp_path / "s"), "--mode", "case1", "--idealized",
                   "--n", "4", "--k", "3", "--trials", "1000"])
        assert rc == 0
        rep = json.loads((tmp_path / "s" / "report.json").read_text())
        assert rep["mode"] == "exhaustive"

    def test_fallback_reason_names_a_table_over_budget(self, tmp_path, caplog):
        # 2^24 joint states x 4^8 outputs: the emission table binds; the reason
        # used to name the 2^24-entry carry, which fits the budget
        spec = tmp_path / "adder3.json"
        spec.write_text(json.dumps(channel_to_json(
            adder_mac3(), [Dist.bernoulli(0.5)] * 3)))
        caplog.set_level(logging.INFO, logger="macresolve")
        rc = main(["simulate", "--channel", str(spec), "--out-dir",
                   str(tmp_path / "s"), "--mode", "multi", "--idealized",
                   "--n", "8", "--k", "1", "--trials", "1000"])
        assert rc == 0
        reason = [r.getMessage() for r in caplog.records
                  if "exact mode unavailable" in r.getMessage()]
        assert len(reason) == 1
        needed, table, budget = re.search(
            r"needs (\d+) entries for the (.+?), budget is (\d+)", reason[0]).groups()
        assert table == "emission table"
        assert int(needed) == (1 << 24) * 4 ** 8 > int(budget)

    def test_mc_mode_reports_ci(self, adder_spec, tmp_path):
        rc = main(["simulate", "--channel", adder_spec, "--out-dir",
                   str(tmp_path / "s"), "--n", "16", "--k", "2", "--idealized",
                   "--trials", "3000"])
        assert rc == 0
        rep = json.loads((tmp_path / "s" / "report.json").read_text())
        assert rep["mode"] == "mc"
        rows = {m[0]: m for m in rep["metrics"]}
        w = rows["windowed_tv_w2"]
        assert w[2] is not None and w[3] is not None and w[4] == 3000

    def test_no_recycle_keeps_the_rows_under_another_hash(self, adder_spec,
                                                          tmp_path):
        reps = []
        for flags in ([], ["--no-recycle"]):
            out = tmp_path / f"s{len(flags)}"
            rc = main(["simulate", "--channel", adder_spec, "--out-dir",
                       str(out), "--n", "16", "--k", "2", "--idealized",
                       "--trials", "1000", *flags])
            assert rc == 0
            reps.append(json.loads((out / "report.json").read_text()))
        assert reps[1]["mode"] == "mc"
        assert [m[0] for m in reps[1]["metrics"]] == \
            [m[0] for m in reps[0]["metrics"]]
        assert reps[1]["config_hash"] != reps[0]["config_hash"]

    def test_no_recycle_runs_the_trials_in_exhaustive_reach(self, adder_spec,
                                                            tmp_path, caplog):
        # the exhaustive engine models recycled seeds only: its rows under
        # --no-recycle were the recycled code's
        caplog.set_level(logging.INFO, logger="macresolve")
        reps = []
        for flags in ([], ["--no-recycle"]):
            out = tmp_path / f"s{len(flags)}"
            rc = main(["simulate", "--channel", adder_spec, "--out-dir",
                       str(out), "--n", "4", "--k", "2", "--idealized",
                       "--eps", "0.3", "--trials", "2000", *flags])
            assert rc == 0
            reps.append(json.loads((out / "report.json").read_text()))
        assert [r["mode"] for r in reps] == ["exhaustive", "mc"]
        rows = {m[0]: m for m in reps[1]["metrics"]}
        assert rows["windowed_tv_w2"][4] == 2000
        assert "bound_joint_tv_floor" in rows
        reason = [r.getMessage() for r in caplog.records
                  if "exact mode unavailable" in r.getMessage()]
        assert len(reason) == 1 and "--no-recycle" in reason[0]

    def test_report_carries_region_verdicts(self, adder_spec, tmp_path):
        rc = main(["simulate", "--channel", adder_spec, "--out-dir",
                   str(tmp_path / "s"), "--n", "8", "--k", "2", "--idealized",
                   "--trials", "2000"])
        assert rc == 0
        rep = json.loads((tmp_path / "s" / "report.json").read_text())
        region = rep["region"]
        assert region["case"] == "case1"
        assert region["in_region"]
        assert set(region["verdicts"]) == {"1", "2", "1+2"}
        # finite-k seed rates always clear the information bounds
        assert all(v["achieved"] >= v["required"]
                   for v in region["verdicts"].values())

    @pytest.mark.parametrize("spec,flags,user_streams", [
        ("adder_spec", [], [["x"], ["u", "v"]]),
        ("parallel_spec", ["--mode", "case2"], [["x"], ["y"]]),
        # chain order x3, x1, x2; the rates stay in user order
        ("adder3_spec", ["--mode", "multi", "--order", "3,1,2"],
         [["x1"], ["x2"], ["x3"]]),
    ])
    def test_rates_per_user_sum_each_users_streams(self, request, tmp_path,
                                                   spec, flags, user_streams):
        rc = main(["simulate", "--channel", request.getfixturevalue(spec),
                   "--out-dir", str(tmp_path / "s"), "--n", "4", "--k", "1",
                   "--idealized", *flags])
        assert rc == 0
        rep = json.loads((tmp_path / "s" / "report.json").read_text())
        assert rep["region"]["rates_per_user"] == [
            sum(rep["rates"][name]["rate_float"] for name in names)
            for names in user_streams]

    def test_deterministic_across_runs_and_workers(self, adder_spec, tmp_path):
        # three chunks, the last one short
        base = ["simulate", "--channel", adder_spec, "--n", "16", "--k", "2",
                "--idealized", "--seed", "9",
                "--trials", str(2 * cli.CHUNK_TRIALS + 1000)]
        outs = []
        for tag, workers in (("a", "1"), ("b", "1"), ("c", "2"), ("d", "3")):
            out = tmp_path / tag
            assert main(base + ["--workers", workers, "--out-dir", str(out)]) == 0
            outs.append((out / "report.json").read_bytes())
        assert outs[0] == outs[1] == outs[2] == outs[3]

    def test_oversized_plan_writes_no_rates(self, parallel_spec, tmp_path,
                                            capsys):
        # eps = 2 (5 + 5) asks for 84 fresh bits per 4-symbol block
        out = tmp_path / "s"
        rc = main(["simulate", "--channel", parallel_spec, "--out-dir", str(out),
                   "--mode", "case2", "--n", "4", "--k", "2", "--idealized",
                   "--ideal-xi", "5", "--ideal-delta", "5"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error: stream x draws 84 fresh bits" in err
        assert "N = 4" in err and "eps = 20" in err
        assert not (out / "report.json").exists()
        assert not (out / "descriptor.json").exists()

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_window_wider_than_block_rejected(self, adder_spec, tmp_path,
                                              capsys, monkeypatch, command):
        # k = 8 is over the exhaustive budget at N = 2, so this runs Monte Carlo
        def no_trials(*args, **kwargs):
            raise AssertionError("trials ran")

        monkeypatch.setattr(cli.evaluator, "mc_chunk_features", no_trials)
        rc = main([command, "--channel", adder_spec, "--out-dir",
                   str(tmp_path / "s"), "--n", "2", "--k", "8", "--idealized",
                   "--window", "3", "--trials", "1000"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "--window 3" in err and "--n 2" in err
        assert not (tmp_path / "s" / OUTPUT[command]).exists()


class TestStrictJson:
    def test_non_finite_value_is_not_written(self, tmp_path):
        path = tmp_path / "report.json"
        with pytest.raises(ValueError, match="not writing .*report.json"):
            cli._write_json(path, {"metrics": [["windowed_tv_w3", float("nan")]]})
        assert not path.exists()


class TestDescriptorProvenance:
    BASE = ["simulate", "--n", "4", "--idealized", "--trials", "1000"]

    def test_foreign_descriptor_in_out_dir_rejected(self, adder_spec, tmp_path,
                                                    capsys):
        out = tmp_path / "o1"
        args = self.BASE + ["--channel", adder_spec, "--out-dir", str(out)]
        assert main(args + ["--k", "1"]) == 0
        desc = json.loads((out / "descriptor.json").read_text())
        report = (out / "report.json").read_bytes()
        capsys.readouterr()
        assert main(args + ["--k", "2"]) == 1
        err = capsys.readouterr().err
        assert (out / "report.json").read_bytes() == report
        # the message names the stored stamp and this run's build hash
        k2 = cli.ExperimentConfig(channel=adder_spec, n=4, k=2,
                                  idealized=True).build_hash()
        assert desc["config_hash"] in err and k2 in err
        # an explicit --descriptor is checked the same way
        other = tmp_path / "o2"
        capsys.readouterr()
        assert main(self.BASE + ["--channel", adder_spec, "--out-dir", str(other),
                                 "--k", "2", "--descriptor",
                                 str(out / "descriptor.json")]) == 1
        err = capsys.readouterr().err
        assert desc["config_hash"] in err and k2 in err
        assert not (other / "report.json").exists()

    def test_missing_explicit_descriptor_is_an_error(self, adder_spec, tmp_path,
                                                     capsys):
        out = tmp_path / "d3"
        missing = tmp_path / "nosuch.json"
        assert main(self.BASE + ["--channel", adder_spec, "--out-dir", str(out),
                                 "--k", "1", "--descriptor", str(missing)]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and str(missing) in err
        assert not (out / "descriptor.json").exists()
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("text", ["not json", "[1, 2]", None],
                             ids=["not-json", "array", "directory"])
    def test_unreadable_descriptor_file_named(self, adder_spec, tmp_path,
                                              capsys, text):
        bad = tmp_path / "bad.json"
        bad.mkdir() if text is None else bad.write_text(text)
        out = tmp_path / "o"
        assert main(self.BASE + ["--channel", adder_spec, "--out-dir", str(out),
                                 "--k", "1", "--descriptor", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "error: " in err and str(bad) in err
        assert not out.exists()

    def test_matching_rerun_reuses_descriptor(self, adder_spec, tmp_path,
                                              monkeypatch):
        out = tmp_path / "o1"
        args = self.BASE + ["--channel", adder_spec, "--out-dir", str(out),
                            "--k", "1"]
        assert main(args) == 0
        report = (out / "report.json").read_bytes()

        def no_build(cfg):
            raise AssertionError("descriptor rebuilt")

        monkeypatch.setattr(cli, "cmd_build", no_build)
        assert main(args) == 0
        assert (out / "report.json").read_bytes() == report

    def test_rewritten_spec_rejects_the_stored_descriptor(self, adder_spec,
                                                          tmp_path, capsys):
        out = tmp_path / "o"
        args = ["--channel", adder_spec, "--out-dir", str(out), "--n", "4",
                "--k", "2", "--idealized"]
        assert main(["build"] + args) == 0
        spec = json.loads(Path(adder_spec).read_text())
        spec["input_dists"] = [[0.9, 0.1], [0.5, 0.5]]
        Path(adder_spec).write_text(json.dumps(spec))
        capsys.readouterr()
        assert main(["simulate", "--trials", "1000"] + args) == 1
        assert "config_hash" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_one_spec_at_two_paths_has_one_hash(self, adder_spec, tmp_path):
        copy = tmp_path / "elsewhere" / "spec.json"
        copy.parent.mkdir()
        copy.write_text(Path(adder_spec).read_text())
        region_hashes, cfg_hashes = [], []
        for spec, tag in ((adder_spec, "a"), (str(copy), "b")):
            assert main(["region", "--channel", spec,
                         "--out-dir", str(tmp_path / tag)]) == 0
            region_hashes.append(json.loads(
                (tmp_path / tag / "region.json").read_text())["config_hash"])
            cfg = cli.ExperimentConfig(channel=spec)
            cfg_hashes.append((cfg.hash(), cfg.build_hash()))
        assert region_hashes[0] == region_hashes[1]
        assert cfg_hashes[0] == cfg_hashes[1]


def _flip_first_hash_bit(desc):
    """Flip the first diagonal bit of the descriptor's longest hash."""
    h = max(desc["hashes"].values(), key=lambda h: len(h["hex"]))
    h["hex"] = f"{int(h['hex'][0], 16) ^ 8:x}" + h["hex"][1:]


class TestDescriptorContents:
    ARGS = ["--n", "4", "--k", "2", "--idealized"]

    def _simulate_edited(self, spec, tmp_path, capsys, edit):
        """Build, apply ``edit`` to the descriptor, simulate from it."""
        out = tmp_path / "o"
        assert main(["build", "--channel", spec, "--out-dir", str(out)]
                    + self.ARGS) == 0
        path = out / "descriptor.json"
        desc = json.loads(path.read_text())
        edit(desc)
        path.write_text(json.dumps(desc))
        capsys.readouterr()
        rc = main(["simulate", "--channel", spec, "--out-dir", str(out),
                   "--trials", "1000"] + self.ARGS)
        assert not (out / "report.json").exists()
        return rc, capsys.readouterr().err

    def test_parent_format_descriptor_asks_for_a_rebuild(self, adder_spec,
                                                          tmp_path, capsys):
        def to_parent_format(desc):
            for prof in desc["profiles"].values():
                del prof["cond_entropies"]
            desc["profile_seed"] = None
            desc["beta"] = 0.25

        rc, err = self._simulate_edited(adder_spec, tmp_path, capsys,
                                        to_parent_format)
        assert rc == 1
        assert "'cond_entropies'" in err and "rerun build" in err
        assert "Traceback" not in err

    def test_missing_hashes_named(self, adder_spec, tmp_path, capsys):
        rc, err = self._simulate_edited(adder_spec, tmp_path, capsys,
                                        lambda desc: desc.pop("hashes"))
        assert rc == 1
        assert "'hashes'" in err and "rerun build" in err

    @pytest.mark.parametrize("field,edit", [
        ("bogus", lambda stream: stream.update(bogus=1)),
        ("clamped", lambda stream: stream.pop("clamped")),
        ("seed_len_rest", lambda stream: stream.update(
            seed_len_rest=stream["seed_len_rest"] + 1)),
    ])
    def test_stream_field_mismatch_named(self, adder_spec, tmp_path, capsys,
                                         field, edit):
        rc, err = self._simulate_edited(adder_spec, tmp_path, capsys,
                                        lambda desc: edit(desc["streams"][0]))
        assert rc == 1
        assert f"'{field}'" in err and "rerun build" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("edit,field", [
        (lambda desc: desc.update(k="2"), "['k']"),
        (lambda desc: desc.update(block_len="4"), "['block_len']"),
        (lambda desc: desc["profiles"]["x"].update(beta="0.25"),
         "['profiles']['x']['beta']"),
        (lambda desc: desc["hashes"]["x"].update(hex=5), "['hashes']['x']['hex']"),
        (lambda desc: desc["split"].update(eps="0.5"), "['split']['eps']"),
        (lambda desc: desc.update(xi=None), "['xi']"),
        (lambda desc: desc.update(channel=5), "['channel']"),
        (lambda desc: desc.update(profiles=[]), "['profiles']"),
        (lambda desc: desc["channel"]["transition"][1].append({}),
         "['channel']['transition'][1][3]"),
        # the int reads back as the float 1.0, which JSON writes otherwise
        (lambda desc: desc["profiles"]["x"]["cond_entropies"].__setitem__(3, 1),
         "['profiles']['x']['cond_entropies'][3]"),
    ])
    def test_mistyped_field_named(self, adder_spec, tmp_path, capsys, edit,
                                  field):
        rc, err = self._simulate_edited(adder_spec, tmp_path, capsys, edit)
        assert rc == 1
        assert f"error: descriptor field {field} " in err and "rerun build" in err

    @pytest.mark.parametrize("edit", [
        lambda desc: desc.update(k=3), _flip_first_hash_bit], ids=["k", "hex"])
    def test_edited_chosen_field_breaks_the_stamp(self, adder_spec, tmp_path,
                                                  capsys, edit):
        # the edited descriptor rebuilds cleanly, but its stamp was made over
        # the body build wrote
        rc, err = self._simulate_edited(adder_spec, tmp_path, capsys, edit)
        assert rc == 1
        assert "error: descriptor config_hash" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("spec,edit,message", [
        ("adder_spec", lambda desc: desc.update(user_order=[0, 1]),
         "a user order applies to multi mode only, not case1"),
        ("parallel_spec", lambda desc: desc.update(user_order=[1, 0]),
         "a user order applies to multi mode only, not case2"),
        ("parallel_spec", lambda desc: desc.update(split={"eps": 0.5}),
         "a rate split applies to case 1 only, not case2"),
        ("adder3_spec", lambda desc: desc.update(split={"eps": 0.5}),
         "a rate split applies to case 1 only, not multi"),
        ("adder_spec", lambda desc: desc.update(mode="case2"),
         "a rate split applies to case 1 only, not case2"),
        ("parallel_spec", lambda desc: desc.update(mode="case1"),
         "case 1 needs a rate-split point"),
        ("adder3_spec", lambda desc: desc.update(mode="case1"),
         "a user order applies to multi mode only, not case1"),
        ("adder3_spec", lambda desc: desc.update(mode="case2", user_order=None),
         "case2 needs a two-user channel"),
    ])
    def test_field_the_mode_does_not_take_refused(self, request, tmp_path,
                                                  capsys, spec, edit, message):
        rc, err = self._simulate_edited(request.getfixturevalue(spec),
                                        tmp_path, capsys, edit)
        assert rc == 1
        assert f"error: {message}" in err

    @pytest.mark.parametrize("old,new,field", [
        ('"eps": 0.0,', '"eps": -0.0,', "['eps']"),
        ('"clamped": false,', '"clamped": 0,', "['streams'][0]['clamped']"),
    ], ids=["zero_sign", "bool_as_int"])
    def test_edit_to_an_equal_value_of_other_text_named(
            self, parallel_spec, tmp_path, capsys, old, new, field):
        # -0.0 == 0.0 and 0 == False, yet JSON writes each another way.  The
        # exact_chain workload's config at seed 0: its idealized constants
        # are 0, so eps is 0.0; the loader never reads `clamped`
        args = ["--channel", parallel_spec, "--out-dir", str(tmp_path / "o"),
                "--seed", "0", "--mode", "case2", "--idealized", "--n", "4",
                "--k", "3"]
        assert main(["build"] + args) == 0
        path = tmp_path / "o" / "descriptor.json"
        text = path.read_text()
        assert old in text
        path.write_text(text.replace(old, new, 1))
        capsys.readouterr()
        assert main(["simulate"] + args) == 1
        assert f"error: descriptor field {field} differs" in \
            capsys.readouterr().err
        assert not (tmp_path / "o" / "report.json").exists()

    def test_entropies_breaking_the_chain_rule_rejected(self, adder_spec,
                                                        tmp_path, capsys):
        def tamper(desc):
            prof = desc["profiles"]["x"]
            assert prof["exact"]
            ce = prof["cond_entropies"]
            ce[ce.index(max(ce))] -= 0.01   # stays inside [0, 1]

        rc, err = self._simulate_edited(adder_spec, tmp_path, capsys, tamper)
        assert rc == 1
        assert "chain rule violated" in err

    def test_entropies_of_wrong_length_rejected(self, adder_spec, tmp_path,
                                                capsys):
        rc, err = self._simulate_edited(
            adder_spec, tmp_path, capsys,
            lambda desc: desc["profiles"]["u"]["cond_entropies"].pop())
        assert rc == 1
        assert "profile length" in err


class TestWidenedPlan:
    def test_codec_seed_wider_than_the_plan_is_drawn_and_counted(self,
                                                                tmp_path):
        # one user seen without noise: nothing to recycle, and the codec of
        # Bern(0.21) at N = 8, beta = 0.05 reads 7 seed bits where
        # 8 I(X; Z) = 5.93 plans 6
        spec = tmp_path / "identity.json"
        spec.write_text(json.dumps(channel_to_json(
            MacChannel((Alphabet(2),), Alphabet(2), np.eye(2)),
            [Dist.bernoulli(0.21)])))
        out = tmp_path / "o"
        assert main(["simulate", "--channel", str(spec), "--out-dir", str(out),
                     "--idealized", "--n", "8", "--k", "3", "--beta", "0.05",
                     "--trials", "1000"]) == 0
        [stream] = json.loads((out / "descriptor.json").read_text())["streams"]
        assert math.ceil(8 * stream["fresh_info"]) == 6
        assert {key: stream[key] for key in (
            "widened", "clamped", "hash_len", "seed_len_first",
            "seed_len_rest", "codec_width")} == {
            "widened": True, "clamped": False, "hash_len": 0,
            "seed_len_first": 7, "seed_len_rest": 7, "codec_width": 7}
        report = json.loads((out / "report.json").read_text())
        assert report["mode"] == "exhaustive"
        assert report["rates"]["x1"]["total_fresh_bits"] == 3 * 7
        assert report["rates"]["x1"]["rate"] == "7/8"


class TestParserDefaults:
    @pytest.mark.parametrize("command", ["region", "build", "simulate", "sweep"])
    def test_unset_flags_take_the_config_defaults(self, adder_spec, command):
        args = cli.build_parser().parse_args([command, "--channel", adder_spec])
        cfg = cli._config_from_args(args)
        default = cli.ExperimentConfig(channel=adder_spec)
        assert cfg == default
        assert cfg.hash() == default.hash()
        assert cfg.build_hash() == default.build_hash()


class TestBuildInputsTheModeUses:
    @pytest.mark.parametrize("spec,flags,message", [
        ("parallel_spec", ["--mode", "case2", "--eps", "0.3"],
         "applies to case 1 only, not case2"),
        ("parallel_spec", ["--mode", "case2", "--target-r1", "0.5"],
         "applies to case 1 only, not case2"),
        ("adder_spec", ["--target-r1", "0.8", "--eps", "0.3"],
         "eps or its target r1, not both"),
        ("adder_spec", ["--ideal-xi", "0.2"], "apply only with --idealized"),
        ("adder_spec", ["--ideal-delta", "0.2"], "apply only with --idealized"),
        ("adder_spec", ["--idealized", "--xi", "0.3"],
         "--xi does not apply with --idealized"),
    ])
    def test_unused_input_refused(self, request, tmp_path, capsys, spec, flags,
                                  message):
        rc = main(["build", "--channel", request.getfixturevalue(spec),
                   "--out-dir", str(tmp_path / "b"), "--n", "4"] + flags)
        assert rc == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "b" / "descriptor.json").exists()

    def test_printed_descriptor_hash_is_the_reports(self, parallel_spec,
                                                    tmp_path, capsys):
        args = ["--channel", parallel_spec, "--out-dir", str(tmp_path / "o"),
                "--n", "4", "--k", "2", "--idealized"]
        assert main(["build"] + args) == 0
        printed = re.search(r"descriptor_hash=([0-9a-f]{16})",
                            capsys.readouterr().out).group(1)
        assert main(["simulate"] + args) == 0
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert report["descriptor_hash"] == printed


class TestSimulateRefusesBeforeWork:
    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_five_users_refused_before_any_trial(self, tmp_path, capsys,
                                                 monkeypatch, command):
        def no_work(*args, **kwargs):
            raise AssertionError("evaluation ran")

        monkeypatch.setattr(cli.evaluator, "mc_chunk_features", no_work)
        monkeypatch.setattr(cli.evaluator, "exact_report", no_work)
        spec = tmp_path / "adder5.json"
        spec.write_text(json.dumps({
            "inputs": [2] * 5, "output": 6,
            "transition": [[1 if z == bin(x).count("1") else 0
                            for z in range(6)] for x in range(32)]}))
        rc = main([command, "--channel", str(spec), "--out-dir",
                   str(tmp_path / "s"), "--n", "4", "--k", "2", "--idealized",
                   "--trials", "20000"])
        assert rc == 1
        assert "supports L <= 4" in capsys.readouterr().err
        assert not (tmp_path / "s" / OUTPUT[command]).exists()

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        """The ``max_workers`` of each pool ``cli`` makes; the pools run their
        tasks on the calling thread, so no thread is started."""
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return [fn(item) for item in items]

        monkeypatch.setattr(cli, "ThreadPoolExecutor", SerialPool)
        return sizes

    def test_pool_has_no_more_workers_than_chunks(self, adder_spec,
                                                  monkeypatch, pool_sizes):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
        monkeypatch.setattr(cli.evaluator, "mc_chunk_features",
                            lambda code, n_trials, rng, **kw: {"trials": n_trials})
        cfg = cli.ExperimentConfig(channel=adder_spec, workers=8,
                                   trials=2 * cli.CHUNK_TRIALS)
        assert cli._mc_features_parallel(None, cfg) == {"trials": cfg.trials}
        assert pool_sizes == [2]

    def test_pool_has_no_more_workers_than_cores(self, adder_spec, monkeypatch,
                                                 pool_sizes, caplog):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        cfg = cli.ExperimentConfig(channel=adder_spec, n=2, k=2, idealized=True,
                                   trials=3 * cli.CHUNK_TRIALS)
        code = cli._build_code(cfg)
        serial = cli._mc_features_parallel(code, cfg)
        assert pool_sizes == [] and not caplog.records
        with caplog.at_level(logging.INFO, logger="macresolve"):
            clamped = cli._mc_features_parallel(code, replace(cfg, workers=100000))
        assert pool_sizes == [2]
        assert [r.getMessage() for r in caplog.records] == [
            "--workers 100000 clamped to 2 cores"]
        for key in serial:
            np.testing.assert_array_equal(clamped[key], serial[key])


class TestChunkThreads:
    def test_chunks_run_in_this_process(self, adder_spec, monkeypatch):
        pids = []

        def record(code, n_trials, rng, **kw):
            pids.append(os.getpid())
            return {"trials": n_trials}

        monkeypatch.setattr(cli.evaluator, "mc_chunk_features", record)
        cfg = cli.ExperimentConfig(channel=adder_spec, workers=2,
                                   trials=2 * cli.CHUNK_TRIALS)
        assert cli._mc_features_parallel(None, cfg) == {"trials": cfg.trials}
        assert pids == [os.getpid()] * 2

    def test_racing_threads_leave_the_code_unchanged(self, adder_spec,
                                                     monkeypatch):
        # four threads that switch every microsecond share one code: none of
        # its codecs or hashes gains, loses or replaces a member
        cfg = cli.ExperimentConfig(channel=adder_spec, n=16, k=2, idealized=True,
                                   trials=3 * cli.CHUNK_TRIALS + 1000)
        code = cli._build_code(cfg)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
        parts = [*code.codecs.values(), *code.hashes.values()]
        before = [dict(vars(p)) for p in parts]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = cli._mc_features_parallel(code, replace(cfg, workers=4))
        finally:
            sys.setswitchinterval(old)
        for p, members in zip(parts, before):
            assert vars(p).keys() == members.keys()
            assert all(vars(p)[name] is v for name, v in members.items())
        serial = cli._mc_features_parallel(cli._build_code(cfg), cfg)
        assert threaded.keys() == serial.keys()
        for key in serial:
            np.testing.assert_array_equal(threaded[key], serial[key])

    def test_simulate_imports_no_numpy_ma(self, adder_spec, tmp_path):
        # numpy's np.percentile imports numpy.ma through np.unique
        args = ["--channel", adder_spec, "--out-dir", str(tmp_path / "s"),
                "--n", "16", "--k", "2", "--idealized", "--trials", "3000"]
        assert main(["build"] + args[:-2]) == 0
        src = Path(cli.__file__).resolve().parents[1]
        script = ("import sys; from macresolve.cli import main; "
                  f"assert main(['simulate'] + {args!r}) == 0; "
                  "print('numpy.ma' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split()[-1] == "False"
        rep = json.loads((tmp_path / "s" / "report.json").read_text())
        assert rep["mode"] == "mc"


class TestTrialsFloor:
    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_too_few_trials_rejected(self, adder_spec, tmp_path, capsys, command):
        rc = main([command, "--channel", adder_spec, "--out-dir",
                   str(tmp_path / "s"), "--n", "16", "--k", "2", "--idealized",
                   "--trials", "999"])
        assert rc == 1
        assert "--trials must be >= 1000" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()


class TestRecBits:
    def test_negative_rec_bits_rejected_up_front(self, adder_spec, tmp_path,
                                                 capsys):
        rc = main(["simulate", "--channel", adder_spec, "--out-dir",
                   str(tmp_path / "s"), "--n", "16", "--k", "2", "--idealized",
                   "--trials", "1000", "--rec-bits", "-1"])
        assert rc == 1
        assert "--rec-bits must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_pair_table_over_the_trials_rejected_before_trials(
            self, adder_spec, tmp_path, capsys, monkeypatch, command):
        # 2^40 x 9 cells of recycled bits by output windows for 2,000 trials;
        # counting them once drew a (1000, cells) float64 bootstrap
        def no_trials(*args, **kwargs):
            raise AssertionError("trials ran")

        monkeypatch.setattr(cli.evaluator, "mc_chunk_features", no_trials)
        rc = main([command, "--channel", adder_spec, "--out-dir",
                   str(tmp_path / "s"), "--n", "64", "--k", "2", "--idealized",
                   "--trials", "2000", "--rec-bits", "40"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "--rec-bits 40" in err and "2^40 x 9" in err
        assert not (tmp_path / "s" / OUTPUT[command]).exists()

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_output_pair_table_over_the_trials_rejected_before_trials(
            self, tmp_path, capsys, monkeypatch, command):
        # 5 output symbols at --window 3: adjacent blocks' windows cross in
        # 125 x 125 = 15,625 cells for 1,000 trials, whose bootstrap once
        # drew (1000, 15625) float64 and peaked at 639 MB
        spec = tmp_path / "noisy5.json"
        spec.write_text(json.dumps({
            "inputs": [2, 2], "output": 5,
            "transition": [[0.6, 0.1, 0.1, 0.1, 0.1], [0.1, 0.6, 0.1, 0.1, 0.1],
                           [0.1, 0.1, 0.6, 0.1, 0.1], [0.1, 0.1, 0.1, 0.1, 0.6]],
            "input_dists": [[0.5, 0.5], [0.5, 0.5]]}))

        def no_trials(*args, **kwargs):
            raise AssertionError("trials ran")

        monkeypatch.setattr(cli.evaluator, "mc_chunk_features", no_trials)
        rc = main([command, "--channel", str(spec), "--out-dir",
                   str(tmp_path / "s"), "--mode", "multi", "--n", "8", "--k",
                   "8", "--idealized", "--trials", "1000", "--rec-bits", "0",
                   "--window", "3"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "--window 3" in err and "--trials 1000" in err
        assert "125 x 125 = 15625" in err
        assert not (tmp_path / "s" / OUTPUT[command]).exists()


class TestAnalysisConstants:
    @pytest.mark.parametrize("flags,message", [
        (["--xi", "nan"], "--xi must be finite"),
        (["--idealized", "--ideal-xi", "inf"], "--ideal-xi must be finite"),
        (["--idealized", "--ideal-xi", "-0.3"], "--ideal-xi must be finite and >= 0"),
        (["--idealized", "--ideal-delta", "nan"], "--ideal-delta must be finite"),
        (["--seed", "-1"], "--seed must be >= 0"),
        (["--target-r1", "nan"], "--target-r1 must be finite"),
    ])
    def test_bad_constant_rejected_up_front(self, parallel_spec, tmp_path,
                                            capsys, flags, message):
        rc = main(["simulate", "--channel", parallel_spec, "--out-dir",
                   str(tmp_path / "s"), "--n", "4", "--k", "2"] + flags)
        assert rc == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "s").exists()


class TestOrderFlag:
    def test_bad_order_is_reported_as_typed(self, tmp_path, capsys):
        spec = tmp_path / "adder3.json"
        spec.write_text(json.dumps(channel_to_json(
            adder_mac3(), [Dist.bernoulli(0.5)] * 3)))
        rc = main(["build", "--channel", str(spec), "--mode", "multi",
                   "--order", "0,1,2", "--out-dir", str(tmp_path / "b")])
        assert rc == 1
        assert "--order 0,1,2 is not a permutation of 1..3" in \
            capsys.readouterr().err
        assert not (tmp_path / "b").exists()

    def test_order_only_in_multi_mode(self, adder_spec, tmp_path, capsys):
        base = ["build", "--channel", adder_spec, "--n", "8", "--k", "2",
                "--idealized", "--order", "2,1"]
        rc = main(base + ["--mode", "case1", "--out-dir", str(tmp_path / "c")])
        assert rc == 1
        assert "multi mode only" in capsys.readouterr().err
        assert not (tmp_path / "c").exists()
        # a two-user code chained in multi mode takes the order
        assert main(base + ["--mode", "multi",
                            "--out-dir", str(tmp_path / "m")]) == 0
        desc = json.loads((tmp_path / "m" / "descriptor.json").read_text())
        assert desc["user_order"] == [1, 0]


class TestListFlags:
    @pytest.mark.parametrize("command,flags", [
        ("build", ["--mode", "case1", "--order", ""]),
        ("build", ["--mode", "multi", "--order", ",,"]),
        ("build", ["--mode", "multi", "--order", "2,1,"]),
        ("sweep", ["--n-list", ""]),
        ("sweep", ["--k-list", "2,,3"]),
        ("sweep", ["--eps-list", ","]),
    ])
    def test_empty_list_or_item_refused(self, adder_spec, tmp_path, capsys,
                                        command, flags):
        with pytest.raises(SystemExit) as refused:
            main([command, "--channel", adder_spec, "--out-dir",
                  str(tmp_path / "o"), "--idealized", *flags])
        assert refused.value.code == 2
        assert f"argument {flags[-2]}: empty list or list item in " \
               f"{flags[-1]!r}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestSweepCommand:
    def test_grid_csv(self, adder_spec, tmp_path):
        rc = main(["sweep", "--channel", adder_spec, "--out-dir",
                   str(tmp_path / "sw"), "--k", "2", "--idealized",
                   "--trials", "2000", "--n-list", "4,8",
                   "--eps-list", "0.3,0.7"])
        assert rc == 0
        lines = (tmp_path / "sw" / "sweep.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[:4] == ["n", "k", "eps", "name"]
        # 2 N values x 2 eps values, several metrics each
        assert len(lines) > 8

    def test_point_rows_are_simulates(self, adder_spec, tmp_path):
        # N = 4 is in exhaustive reach, N = 8 runs Monte Carlo
        flags = ["--channel", adder_spec, "--k", "2", "--idealized",
                 "--eps", "0.3", "--seed", "5", "--trials", "2000"]
        assert main(["sweep", *flags, "--n-list", "4,8",
                     "--out-dir", str(tmp_path / "sw")]) == 0
        with open(tmp_path / "sw" / "sweep.csv", newline="") as f:
            swept = list(csv.reader(f))[1:]
        modes = []
        for n in ("4", "8"):
            out = tmp_path / f"s{n}"
            assert main(["simulate", *flags, "--n", n,
                         "--out-dir", str(out)]) == 0
            with open(out / "report.csv", newline="") as f:
                report = list(csv.reader(f))[1:]
            assert [r[3:] for r in swept if r[0] == n] == report
            modes.append(json.loads((out / "report.json").read_text())["mode"])
        assert modes == ["exhaustive", "mc"]

    def test_window_wider_than_an_exhaustive_block_admitted(self, adder_spec,
                                                            tmp_path):
        # no window is counted in exhaustive mode, so neither command refuses
        flags = ["--channel", adder_spec, "--k", "1", "--idealized",
                 "--window", "3", "--trials", "1000"]
        assert main(["simulate", *flags, "--n", "2",
                     "--out-dir", str(tmp_path / "s")]) == 0
        assert main(["sweep", *flags, "--n-list", "2",
                     "--out-dir", str(tmp_path / "sw")]) == 0
        with open(tmp_path / "s" / "report.csv", newline="") as f:
            report = list(csv.reader(f))[1:]
        with open(tmp_path / "sw" / "sweep.csv", newline="") as f:
            swept = list(csv.reader(f))[1:]
        assert report and [r[3:] for r in swept] == report
        assert {r[-1] for r in report} == {"exact"}

    def test_points_share_one_read_of_the_spec(self, tmp_path, caplog,
                                               monkeypatch):
        # a spec without input laws: one read, one warning for the grid
        spec = tmp_path / "adder.json"
        spec.write_text(json.dumps({
            "inputs": [2, 2], "output": 3,
            "transition": [[1 if z == bin(x).count("1") else 0
                            for z in range(3)] for x in range(4)]}))
        reads = []

        def counted(path):
            reads.append(path)
            return load_channel_file(path)

        monkeypatch.setattr(cli, "load_channel_file", counted)
        caplog.set_level(logging.WARNING, logger="macresolve")
        assert main(["sweep", "--channel", str(spec), "--n-list", "2,4,8",
                     "--k", "2", "--idealized", "--trials", "1000",
                     "--out-dir", str(tmp_path / "sw")]) == 0
        assert len(reads) == 1
        assert [r.getMessage() for r in caplog.records].count(
            "channel spec has no input_dists; defaulting to uniform") == 1

    def test_deterministic_across_workers(self, adder_spec, tmp_path):
        # an exhaustive point and a Monte-Carlo point of two chunks, one short
        outs = []
        for workers in ("1", "2"):
            out = tmp_path / f"w{workers}"
            assert main(["sweep", "--channel", adder_spec, "--n-list", "4,8",
                         "--k", "2", "--idealized", "--trials", "9000",
                         "--workers", workers, "--out-dir", str(out)]) == 0
            outs.append((out / "sweep.csv").read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("n_list,message", [("8,2", "--window 3"),
                                                ("8,6", "power of two")])
    def test_bad_grid_point_rejected_before_trials(self, adder_spec, tmp_path,
                                                   capsys, monkeypatch,
                                                   n_list, message):
        # the bad point comes second: the N = 8 point must not run first;
        # k = 8 puts N = 2 over the exhaustive budget, where the window counts
        def no_trials(*args, **kwargs):
            raise AssertionError("trials ran")

        monkeypatch.setattr(cli.evaluator, "mc_chunk_features", no_trials)
        rc = main(["sweep", "--channel", adder_spec, "--out-dir",
                   str(tmp_path / "sw"), "--n-list", n_list, "--k", "8",
                   "--idealized", "--window", "3", "--trials", "8000"])
        assert rc == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "sw" / "sweep.csv").exists()

    def test_oversized_plan_rejected_before_trials(self, parallel_spec,
                                                   tmp_path, capsys,
                                                   monkeypatch):
        # the plan simulate refuses: 84 fresh bits per 4-symbol block
        def no_trials(*args, **kwargs):
            raise AssertionError("trials ran")

        monkeypatch.setattr(cli.evaluator, "mc_chunk_features", no_trials)
        rc = main(["sweep", "--channel", parallel_spec, "--out-dir",
                   str(tmp_path / "sw"), "--mode", "case2", "--n", "4",
                   "--k", "2", "--idealized", "--ideal-xi", "5",
                   "--ideal-delta", "5", "--trials", "1000"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error: stream x draws 84 fresh bits" in err
        assert "N = 4" in err and "eps = 20" in err
        assert not (tmp_path / "sw" / "sweep.csv").exists()
