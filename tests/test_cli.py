import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import pwscert
from pwscert.classifier import LinearSoftmaxClassifier, save_model
from pwscert.cli import main, parse_radius
from pwscert.errors import ConfigError
from pwscert.geometry import Axis
from pwscert.rasterizer import load_image


@pytest.fixture(scope="module")
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def workspace(tmp_path_factory, runner):
    """Corpus plus trained model shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus"
    model = root / "model.pws"
    res = runner.invoke(main, [
        "gen-scenes", "--out", str(corpus), "--profile", "demo",
        "--classes", "3", "--per-class", "1", "--seed", "2",
    ])
    assert res.exit_code == 0, res.output
    res = runner.invoke(main, [
        "train", "--corpus", str(corpus), "--out", str(model),
        "--sigma", "0.5", "--augment", "4", "--seed", "1",
    ])
    assert res.exit_code == 0, res.output
    return root, corpus, model


class TestParseRadius:
    def test_units(self):
        assert parse_radius("10mm", Axis.TZ) == pytest.approx(0.01)
        assert parse_radius("1.5m", Axis.TX) == pytest.approx(1.5)
        assert parse_radius("0.25deg", Axis.RY) == pytest.approx(
            0.25 * np.pi / 180
        )
        assert parse_radius("0.02rad", Axis.RX) == pytest.approx(0.02)

    def test_unit_axis_mismatch(self):
        with pytest.raises(ConfigError):
            parse_radius("10mm", Axis.RY)
        with pytest.raises(ConfigError):
            parse_radius("2deg", Axis.TZ)

    def test_missing_unit(self):
        with pytest.raises(ConfigError):
            parse_radius("0.01", Axis.TZ)

    def test_not_a_number(self):
        with pytest.raises(ConfigError, match="bad radius 'xmm'"):
            parse_radius("xmm", Axis.TZ)


class TestPartitionAndProject:
    def test_partition_prints_spacing(self, runner, workspace):
        _, corpus, _ = workspace
        res = runner.invoke(main, [
            "partition", "--corpus", str(corpus), "--axis", "tz",
            "--radius", "36mm", "--method", "exact",
            "--resolution", "1201", "--quantile", "1.0",
        ])
        assert res.exit_code == 0, res.output
        assert "delta_alpha=" in res.output and "n=" in res.output

    @pytest.mark.parametrize("radius, steps", [("1e308mm", "2e+302"), ("1e300mm", "2e+294")])
    def test_degenerate_spacing_names_the_run_width(self, runner, workspace, radius, steps):
        # one pose per run: the governing run is 0 wide, which the spacing
        # after its one-step shrink printed as -step
        res = runner.invoke(main, ["partition", "--corpus", str(workspace[1]),
                                   "--axis", "tx", "--radius", radius])
        assert res.exit_code == 1
        assert res.output.splitlines() == [
            f"degenerate_interval: governing run width 0 not above two sweep steps "
            f"{steps}; raise the resolution or relax the quantile"]

    def test_lipschitz_needs_more_frames(self, runner, workspace):
        _, corpus, _ = workspace
        counts = {}
        for method in ("exact", "lipschitz"):
            res = runner.invoke(main, [
                "partition", "--corpus", str(corpus), "--axis", "ry",
                "--radius", "0.026rad", "--method", method,
                "--resolution", "1201", "--quantile", "1.0",
            ])
            assert res.exit_code == 0, res.output
            counts[method] = int(res.output.split("n=")[1].split()[0])
        assert counts["exact"] < counts["lipschitz"]

    def test_one_frame_partition(self, runner, workspace):
        _, corpus, _ = workspace
        res = runner.invoke(main, [
            "partition", "--corpus", str(corpus), "--axis", "tz",
            "--radius", "36mm", "--method", "one-frame", "--delta", "0.015",
            "--resolution", "1201", "--quantile", "1.0",
        ])
        assert res.exit_code == 0, res.output
        assert "method=one-frame" in res.output

    def test_project_writes_frames(self, runner, workspace, tmp_path):
        _, corpus, _ = workspace
        out = tmp_path / "frames"
        res = runner.invoke(main, [
            "project", "--corpus", str(corpus), "--axis", "tz",
            "--radius", "36mm", "--resolution", "801", "--quantile", "1.0",
            "--out", str(out),
        ])
        assert res.exit_code == 0, res.output
        plan = json.loads((out / "partition.json").read_text())
        frames = sorted(out.glob("*.pwsi"))
        assert len(frames) == plan["n"]
        img = load_image(frames[0])
        assert img.shape == (1, 24, 24)

    def test_partition_json_equals_project_plan(self, runner, workspace, tmp_path):
        _, corpus, _ = workspace
        options = ["--corpus", str(corpus), "--axis", "ry", "--radius", "0.026rad",
                   "--method", "one-frame", "--delta", "0.015",
                   "--resolution", "801", "--quantile", "1.0"]
        res = runner.invoke(main, ["partition", *options,
                                   "--json-out", str(tmp_path / "plan.json")])
        assert res.exit_code == 0, res.output
        res = runner.invoke(main, ["project", *options, "--out", str(tmp_path / "f")])
        assert res.exit_code == 0, res.output
        assert ((tmp_path / "plan.json").read_text()
                == (tmp_path / "f" / "partition.json").read_text())


class TestCertifyAttackReport:
    def test_end_to_end(self, runner, workspace, tmp_path):
        _, corpus, model = workspace
        run = tmp_path / "run"
        res = runner.invoke(main, [
            "certify", "--corpus", str(corpus), "--model", str(model),
            "--axis", "tz", "--radius", "36mm", "--sigma", "0.5",
            "--n-samples", "800", "--alpha", "0.01",
            "--resolution", "1201", "--quantile", "1.0",
            "--seed", "3", "--out", str(run),
        ])
        assert res.exit_code == 0, res.output
        summary = json.loads((run / "summary.json").read_text())
        assert len(summary["samples"]) == 3
        assert 0.0 <= summary["certified_accuracy"] <= 1.0
        one = next(iter(summary["samples"]))
        payload = json.loads((run / f"{one}.cert.json").read_text())
        assert payload["pws_report_version"] == 8

        res = runner.invoke(main, [
            "attack", "--corpus", str(corpus), "--model", str(model),
            "--axis", "tz", "--radius", "36mm", "--sigma", "0.5",
            "--poses", "12", "--n-samples", "500", "--seed", "3",
            "--out", str(run / "attacks"),
        ])
        assert res.exit_code == 0, res.output
        attacks = list((run / "attacks").glob("*.attack.json"))
        assert len(attacks) == 3

        out_csv = tmp_path / "table.csv"
        res = runner.invoke(main, [
            "report", "--runs", str(tmp_path), "--out", str(out_csv),
        ])
        assert res.exit_code == 0, res.output
        with open(out_csv) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert set(rows[0]) == {
            "radius", "axis", "method", "sigma",
            "certified_accuracy", "mean_N",
        }

    def test_reports_byte_identical_across_runs(self, runner, workspace, tmp_path):
        _, corpus, model = workspace
        payloads = []
        for run_dir in ("a", "b"):
            res = runner.invoke(main, [
                "certify", "--corpus", str(corpus), "--model", str(model),
                "--axis", "ry", "--radius", "0.026rad", "--sigma", "0.5",
                "--n-samples", "500", "--alpha", "0.01",
                "--resolution", "801", "--quantile", "1.0",
                "--seed", "7", "--out", str(tmp_path / run_dir),
            ])
            assert res.exit_code == 0, res.output
            texts = {}
            for path in sorted((tmp_path / run_dir).glob("*.json")):
                data = json.loads(path.read_text())
                data.pop("timing", None)
                texts[path.name] = json.dumps(data, sort_keys=True)
            payloads.append(texts)
        assert payloads[0] == payloads[1]

    def test_failed_scenes_recorded_and_skipped_by_report(self, runner, workspace,
                                                         tmp_path):
        _, corpus, model = workspace
        run = tmp_path / "failing"
        res = runner.invoke(main, [
            "certify", "--corpus", str(corpus), "--model", str(model),
            "--axis", "tz", "--radius", "36mm", "--method", "one-frame",
            "--delta", "0.3", "--n-samples", "200", "--resolution", "801",
            "--quantile", "1.0", "--out", str(run),
        ])
        assert res.exit_code == 0, res.output
        summary = json.loads((run / "summary.json").read_text())
        assert len(summary["samples"]) == 3
        for sample in summary["samples"].values():
            assert set(sample) == {"error", "true_label"}
            assert sample["error"].startswith("negative_margin: ")
        assert summary["certified_accuracy"] == 0.0
        assert not list(run.glob("*.cert.json"))
        # a summary whose samples all failed gives report no row
        res = runner.invoke(main, ["report", "--runs", str(tmp_path),
                                   "--out", str(tmp_path / "table.csv")])
        assert res.exit_code == 2
        assert res.output.splitlines() == [
            f"config_error: no certify summaries under {tmp_path}"]


# the fields of a certify summary that ``pws report`` reads
SUMMARY = {
    "config": {"radius_text": "36mm", "axis": "tz", "method": "exact", "sigma": 0.5},
    "samples": {"a": {"verdict": "certified", "n_partitions": 4}},
    "certified_accuracy": 1.0,
}


class TestErrorHandling:
    @pytest.mark.parametrize("text", [
        json.dumps(SUMMARY)[:-10],
        json.dumps([SUMMARY]),
        json.dumps({k: v for k, v in SUMMARY.items() if k != "config"}),
        json.dumps({**SUMMARY, "samples": {"a": {"verdict": "certified",
                                                 "min_radius": 0.5}}}),
    ], ids=["truncated", "list", "no-config", "sample-without-n-partitions"])
    def test_bad_summary_exits_1(self, runner, tmp_path, text):
        path = tmp_path / "runs" / "summary.json"
        path.parent.mkdir()
        args = ["report", "--runs", str(path.parent), "--out", str(tmp_path / "t.csv")]
        path.write_text(json.dumps(SUMMARY))
        res = runner.invoke(main, args)
        assert res.exit_code == 0, res.output  # the unbroken summary makes a row
        path.write_text(text)
        res = runner.invoke(main, args)
        assert res.exit_code == 1
        [line] = res.output.splitlines()
        assert line.startswith(f"file_format: bad certify summary {path}: ")

    def test_report_reads_summaries_with_fields_it_drops(self, runner, tmp_path):
        # older summaries carry per-sample fields the table no longer has
        runs, out = tmp_path / "runs", tmp_path / "t.csv"
        runs.mkdir()
        sample = {"verdict": "certified", "n_partitions": 4, "retired_field": 4e-4}
        (runs / "summary.json").write_text(json.dumps({**SUMMARY,
                                                       "samples": {"a": sample}}))
        res = runner.invoke(main, ["report", "--runs", str(runs), "--out", str(out)])
        assert res.exit_code == 0, res.output
        assert out.read_text().splitlines() == [
            "radius,axis,method,sigma,certified_accuracy,mean_N",
            "36mm,tz,exact,0.5,1.0,4.0"]

    def test_report_on_empty_dir_exits_2(self, runner, tmp_path):
        (tmp_path / "empty").mkdir()
        res = runner.invoke(main, [
            "report", "--runs", str(tmp_path / "empty"),
            "--out", str(tmp_path / "t.csv"),
        ])
        assert res.exit_code == 2
        assert "config_error:" in res.output

    def test_unknown_axis_exits_2(self, runner, workspace, tmp_path):
        _, corpus, model = workspace
        res = runner.invoke(main, [
            "certify", "--corpus", str(corpus), "--model", str(model),
            "--axis", "qq", "--radius", "10mm", "--out", str(tmp_path / "r"),
        ])
        assert res.exit_code == 2

    def test_bad_thread_count_exits_2(self, runner, workspace, tmp_path):
        _, corpus, model = workspace
        for threads in ["abc", "0", "-3"]:
            res = runner.invoke(main, [
                "certify", "--corpus", str(corpus), "--model", str(model),
                "--axis", "tz", "--radius", "36mm", "--n-samples", "500",
                "--resolution", "201", "--out", str(tmp_path / "r"),
            ], env={"PWS_THREADS": threads})
            assert res.exit_code == 2
            assert res.output.splitlines() == [
                f"config_error: PWS_THREADS must be a positive integer, got '{threads}'"
            ]

    @pytest.mark.parametrize("command", ["partition", "project", "certify"])
    def test_one_frame_without_delta_exits_2(self, runner, workspace, tmp_path, command):
        _, corpus, model = workspace
        args = [command, "--corpus", str(corpus), "--axis", "tz",
                "--radius", "36mm", "--method", "one-frame", "--resolution", "201"]
        if command != "partition":
            args += ["--out", str(tmp_path / "out")]
        if command == "certify":
            args += ["--model", str(model), "--n-samples", "500"]
        res = runner.invoke(main, args)
        assert res.exit_code == 2
        assert res.output.splitlines() == [
            "config_error: one-frame certification requires a convexity delta"
        ]

    @pytest.mark.parametrize("command, option, value, message", [
        ("certify", "--quantile", "0", "quantile must lie in (0, 1], got 0.0"),
        ("partition", "--quantile", "0", "quantile must lie in (0, 1], got 0.0"),
        ("certify", "--sigma", "0", "sigma must be positive and finite, got 0.0"),
        ("certify", "--sigma", "1e160",
         "sigma must have a finite square, at most about 1.34e154, got 1e+160"),
        ("certify", "--radius", "nanmm", "motion radius must be positive and finite"),
        ("attack", "--poses", "0", "poses must be at least 1, got 0"),
        ("partition", "--resolution", "1", "analysis resolution must be at least 2, got 1"),
        # each past numpy's array size: linspace raised a bare ValueError
        ("attack", "--poses", str(2**70), f"poses must be at most 2^24, got {2**70}"),
        ("partition", "--resolution", str(2**70),
         f"analysis resolution must be at most 2^24, got {2**70}"),
        # 2b overflows: linspace warned in its subtraction
        ("partition", "--radius", "1.7e308m",
         "motion radius 1.7e+308 has no finite range width 2b"),
        ("partition", "--delta", "-1", "convexity delta must be positive and finite"),
    ])
    def test_bad_numeric_option_exits_2(self, runner, workspace, tmp_path, command,
                                        option, value, message):
        _, corpus, model = workspace
        args = {"--axis": "tz", "--radius": "36mm", option: value}
        if command != "partition":
            args.update({"--model": str(model), "--out": str(tmp_path / "out"),
                         "--n-samples": "500"})
        if command != "attack":
            args.setdefault("--resolution", "201")
            args["--method"] = "one-frame" if option == "--delta" else "exact"
        argv = [command, "--corpus", str(corpus)]
        for key, val in args.items():
            argv += [key, val]
        res = runner.invoke(main, argv)
        assert res.exit_code == 2
        assert res.output.splitlines() == [f"config_error: {message}"]

    @pytest.mark.parametrize("command", ["certify", "attack"])
    def test_n_samples_past_2_24_exits_2(self, runner, workspace, tmp_path, command):
        # the tally walked 2^70 draws for as long as anyone waited
        _, corpus, model = workspace
        out = tmp_path / "out"
        res = runner.invoke(main, [command, "--corpus", str(corpus), "--model", str(model),
                                   "--axis", "tz", "--radius", "36mm", "--n-samples",
                                   str(2**70), "--out", str(out)])
        assert res.exit_code == 2
        assert res.output.splitlines() == [
            f"config_error: n_samples must be at most 2^24, got {2**70}"]
        assert not out.exists()

    def test_huge_sigma_certifies_and_abstains(self, runner, workspace, tmp_path):
        # sigma^2 A A^T overflows at 1e154, but sigma times a factor of A A^T
        # does not: the logit path tallies and every scene abstains, as on
        # the pixel path
        _, corpus, model = workspace
        run = tmp_path / "run"
        res = runner.invoke(main, [
            "certify", "--corpus", str(corpus), "--model", str(model), "--axis", "tz",
            "--radius", "36mm", "--sigma", "1e154", "--n-samples", "500",
            "--resolution", "201", "--out", str(run),
        ])
        assert res.exit_code == 0, res.output
        summary = json.loads((run / "summary.json").read_text())
        assert len(summary["samples"]) == 3
        for sample in summary["samples"].values():
            assert (sample["verdict"], sample["min_radius"]) == ("abstain", 0.0)

    @pytest.mark.parametrize("option, value, message", [
        ("--focal", "-1", "focal lengths must be positive and finite"),
        ("--focal", "nan", "focal lengths must be positive and finite"),
        ("--focal", "inf", "focal lengths must be positive and finite"),
        ("--grid", "0", "grid size must be positive"),
        ("--channels", "-1", "per-class and channels must be at least 1, got 1 and -1"),
        ("--per-class", "0", "per-class and channels must be at least 1, got 0 and 1"),
        ("--per-class", "-1", "per-class and channels must be at least 1, got -1 and 1"),
        ("--seed", "-1", "--seed must be a non-negative integer, got -1"),
        ("--seed", "-1000", "--seed must be a non-negative integer, got -1000"),
        ("--classes", "1", "classes must be 2..4"),
        ("--depth", "1.6-2.4", "bad depth range '1.6-2.4'"),
        # numpy's bare ValueError and its _ArrayMemoryError from the colors,
        # and scene color seeds that the next --seed would take again
        ("--channels", str(2**70), f"channels must be an integer from 1 to 16, got {2**70}"),
        ("--channels", "100000000", "channels must be an integer from 1 to 16, got 100000000"),
        ("--per-class", "1001", "--per-class must be at most 1000, got 1001"),
    ])
    def test_bad_gen_scenes_number_exits_2(self, runner, tmp_path, option, value, message):
        out = tmp_path / "corpus"
        args = {"--profile": "random", "--per-class": "1", "--grid": "16", option: value}
        argv = ["gen-scenes", "--out", str(out)]
        for key, val in args.items():
            argv += [key, val]
        res = runner.invoke(main, argv)
        assert res.exit_code == 2
        assert res.output.splitlines() == [f"config_error: {message}"]
        assert not out.exists()

    def test_focal_length_past_the_float_range_exits_1(self, runner, tmp_path):
        # back-projection overflowed with a numpy warning: now an infinite point
        out = tmp_path / "corpus"
        res = runner.invoke(main, ["gen-scenes", "--out", str(out), "--profile", "random",
                                   "--per-class", "1", "--grid", "16", "--focal", "1e-320"])
        assert res.exit_code == 1
        assert res.output.splitlines() == ["invalid_cloud: points and colors must be finite"]
        assert not out.exists()

    @pytest.mark.parametrize("factor", ["0", "-2"])
    def test_bad_downsample_exits_2(self, runner, workspace, tmp_path, factor):
        _, corpus, _ = workspace
        res = runner.invoke(main, ["train", "--corpus", str(corpus), "--out",
                                   str(tmp_path / "model.pws"), "--downsample", factor])
        assert res.exit_code == 2
        assert res.output.splitlines() == [
            f"config_error: downsample factor must be an integer of at least 1, got {factor}"
        ]

    @pytest.mark.parametrize("option, value, message", [
        ("--sigma", "nan", "noise_sigma must be a finite real number >= 0, got nan"),
        ("--sigma", "inf", "noise_sigma must be a finite real number >= 0, got inf"),
        ("--augment", "-3", "augment_count must be an integer >= 0, got -3"),
        # a training matrix of 1,002 copies of each scene, and copies that
        # overflowed to inf
        ("--augment", "1001", "augment_count must be at most 1000, got 1001"),
        ("--sigma", "1e308",
         "noise_sigma must have a finite square, at most about 1.34e154, got 1e+308"),
    ])
    def test_noise_train_cannot_use_exits_2(self, runner, workspace, tmp_path, option,
                                            value, message):
        _, corpus, _ = workspace
        out = tmp_path / "model.pws"
        res = runner.invoke(main, ["train", "--corpus", str(corpus), "--out", str(out),
                                   option, value])
        assert res.exit_code == 2
        assert res.output.splitlines() == [f"config_error: {message}"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["certify", "attack", "train"])
    def test_negative_seed_exits_2(self, runner, workspace, tmp_path, command):
        # seeds are one 64-bit word: -1 would alias seed 2**64 - 1
        _, corpus, model = workspace
        out = tmp_path / "out"
        args = [command, "--corpus", str(corpus), "--out", str(out), "--seed", "-1"]
        if command != "train":
            args += ["--model", str(model), "--axis", "tz", "--radius", "36mm"]
        res = runner.invoke(main, args)
        assert res.exit_code == 2
        assert res.output.splitlines() == [
            "config_error: seed must be an integer in [0, 2**64), got -1"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["partition", "certify"])
    def test_corpus_without_scenes_exits_1(self, runner, workspace, tmp_path, command):
        _, corpus, model = workspace
        copy = tmp_path / "corpus"
        shutil.copytree(corpus, copy)
        (copy / "labels.json").write_text("{}")
        args = [command, "--corpus", str(copy), "--axis", "tz", "--radius", "36mm"]
        if command == "certify":
            args += ["--model", str(model), "--out", str(tmp_path / "out")]
        res = runner.invoke(main, args)
        assert res.exit_code == 1
        assert res.output.splitlines() == [
            f"file_format: bad corpus metadata in {copy}: labels.json names no scene"
        ]

    def test_camera_grid_past_2_20_pixels_exits_1(self, runner, workspace, tmp_path):
        _, corpus, model = workspace
        copy = tmp_path / "corpus"
        shutil.copytree(corpus, copy)
        camera = json.loads((copy / "camera.json").read_text())
        camera["height"] = 2**70
        (copy / "camera.json").write_text(json.dumps(camera))
        res = runner.invoke(main, [
            "certify", "--corpus", str(copy), "--model", str(model), "--axis", "tz",
            "--radius", "36mm", "--out", str(tmp_path / "out"),
        ])
        assert res.exit_code == 1
        assert res.output.splitlines() == [
            f"file_format: bad corpus metadata in {copy}: grid of {camera['width']} x "
            f"{2**70} pixels exceeds 2^20 = 1,048,576 pixels"
        ]

    def test_unknown_scene_exits_2(self, runner, workspace, tmp_path):
        _, corpus, model = workspace
        known = sorted(p.stem for p in (corpus / "scenes").iterdir())[0]
        res = runner.invoke(main, [
            "certify", "--corpus", str(corpus), "--model", str(model),
            "--axis", "tz", "--radius", "36mm", "--scene", "nosuch", "--scene", known,
            "--out", str(tmp_path / "out"),
        ])
        assert res.exit_code == 2
        assert res.output.splitlines() == ["config_error: scenes not in corpus: nosuch"]

    def test_module_error_exits_1(self, runner, workspace, tmp_path):
        _, corpus, _ = workspace
        # a huge translation radius puts scene points behind the camera
        res = runner.invoke(main, [
            "partition", "--corpus", str(corpus), "--axis", "tz",
            "--radius", "5m", "--method", "lipschitz", "--resolution", "201",
        ])
        assert res.exit_code == 1
        assert "non_positive_depth:" in res.output

    def test_model_header_body_mismatch_exits_1(self, runner, workspace, tmp_path):
        _, corpus, model = workspace
        head, body = model.read_bytes().split(b"\n", 1)
        header = json.loads(head)
        assert (header["features"], header["labels"]) == (36, 3)
        # the body's 111 floats also read as 110 features x 1 label, which
        # a 1 x 24 x 24 image pooled by 4 cannot feed
        header.update(features=110, labels=1)
        bad = tmp_path / "bad.pws"
        bad.write_bytes(json.dumps(header).encode() + b"\n" + body)
        res = runner.invoke(main, [
            "certify", "--corpus", str(corpus), "--model", str(bad),
            "--axis", "tz", "--radius", "36mm", "--out", str(tmp_path / "run"),
        ])
        assert res.exit_code == 1
        [line] = res.output.splitlines()
        assert line.startswith("file_format: bad model header fields: ")

    @staticmethod
    def run_other_model(runner, corpus, tmp_path, command, shape, want):
        """Run ``command`` on the demo corpus with a model of ``shape``
        images: ``attack`` exits 1 and ``certify`` records one error per
        scene, each a line starting ``want``."""
        rng = np.random.default_rng(4)
        features = shape[1] * shape[2] // 16
        other = tmp_path / "other.pws"
        save_model(other, LinearSoftmaxClassifier(rng.normal(size=(features, 3)),
                                                  np.zeros(3), shape, 4))
        run = tmp_path / "run"
        res = runner.invoke(main, [
            command, "--corpus", str(corpus), "--model", str(other),
            "--axis", "tz", "--radius", "36mm", "--n-samples", "200", "--out", str(run),
        ])
        if command == "attack":
            assert res.exit_code == 1
            [line] = res.output.splitlines()
            assert line.startswith(want)
            return
        assert res.exit_code == 0, res.output
        summary = json.loads((run / "summary.json").read_text())
        assert len(summary["samples"]) == 3
        for sample in summary["samples"].values():
            assert set(sample) == {"error", "true_label"}
            assert sample["error"].startswith(want)
        assert summary["certified_accuracy"] == 0.0

    @pytest.mark.parametrize("command", ["certify", "attack"])
    def test_model_of_another_grid_ends_in_shape_mismatch(self, runner, workspace,
                                                          tmp_path, command):
        # a model of 32 x 32 images, run on the 24 x 24 demo corpus
        self.run_other_model(runner, workspace[1], tmp_path, command, (1, 32, 32),
                             "shape_mismatch: ")

    @pytest.mark.parametrize("command", ["certify", "attack"])
    def test_model_of_as_many_pixels_on_another_grid_ends_in_shape_mismatch(
            self, runner, workspace, tmp_path, command):
        # a model of 16 x 36 images, as many pixels as the 24 x 24 demo corpus
        self.run_other_model(runner, workspace[1], tmp_path, command, (1, 16, 36),
                             "shape_mismatch: image shape (1, 24, 24) != trained (1, 16, 36)")

    def test_nan_model_exits_1(self, runner, workspace, tmp_path):
        # one NaN weight used to certify every scene with label 0
        _, corpus, model = workspace
        head, body = model.read_bytes().split(b"\n", 1)
        params = np.frombuffer(body, dtype="<f4").copy()
        params[5] = np.nan
        bad = tmp_path / "nan.pws"
        bad.write_bytes(head + b"\n" + params.tobytes())
        res = runner.invoke(main, [
            "certify", "--corpus", str(corpus), "--model", str(bad),
            "--axis", "tz", "--radius", "36mm", "--n-samples", "1000",
            "--out", str(tmp_path / "run"),
        ])
        assert res.exit_code == 1
        [line] = res.output.splitlines()
        assert line.startswith("file_format: ") and "finite" in line
        assert "body" in line and "header" not in line
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["certify", "attack", "project", "report",
                                         "train", "partition", "gen-scenes"])
    def test_output_path_of_the_wrong_kind_exits_1(self, runner, workspace, tmp_path,
                                                   command):
        _, corpus, model = workspace
        afile, adir, runs = tmp_path / "afile", tmp_path / "adir", tmp_path / "runs"
        afile.write_text("")
        adir.mkdir()
        runs.mkdir()
        (runs / "summary.json").write_text(json.dumps(SUMMARY))
        scene = ["--corpus", str(corpus), "--axis", "tz", "--radius", "36mm"]
        smoothing = ["--model", str(model), "--n-samples", "100"]
        argv = {
            # a regular file where a directory must be
            "certify": ["certify", *scene, *smoothing, "--out", str(afile)],
            "attack": ["attack", *scene, *smoothing, "--poses", "2", "--out", str(afile)],
            "project": ["project", *scene, "--resolution", "201", "--out", str(afile)],
            "gen-scenes": ["gen-scenes", "--classes", "2", "--per-class", "1",
                           "--out", str(afile)],
            # a directory where a file must be
            "report": ["report", "--runs", str(runs), "--out", str(adir)],
            "train": ["train", "--corpus", str(corpus), "--out", str(adir)],
            "partition": ["partition", *scene, "--resolution", "201",
                          "--json-out", str(adir)],
        }[command]
        res = runner.invoke(main, argv)
        assert res.exit_code == 1
        *printed, line = res.output.splitlines()
        assert len(printed) == (command == "partition")  # it prints the spacing first
        assert line.startswith("path_error: ") and str(tmp_path) in line
        # nothing is left behind, not even a temporary file
        assert sorted(p.name for p in tmp_path.iterdir()) == ["adir", "afile", "runs"]

    @pytest.mark.parametrize("missing", ["labels.json", "camera.json", "scene"])
    def test_missing_corpus_file_exits_1(self, runner, workspace, tmp_path, missing):
        _, corpus, _ = workspace
        copy = tmp_path / "corpus"
        shutil.copytree(corpus, copy)
        if missing == "scene":
            target = sorted((copy / "scenes").iterdir())[0]
        else:
            target = copy / missing
        target.unlink()
        res = runner.invoke(main, [
            "partition", "--corpus", str(copy), "--axis", "tz", "--radius", "36mm",
        ])
        assert res.exit_code == 1
        assert res.output.splitlines() == [
            f"missing_file: corpus {copy} has no {target}"
        ]


class TestStartup:
    def test_import_leaves_out_slow_scipy_modules(self):
        # scipy.stats and scipy.optimize each take about half a second to
        # import, scipy.spatial about a tenth; every command would pay for them
        code = ("import sys, pwscert.cli; print(sorted(m for m in "
                "('scipy.stats', 'scipy.optimize', 'scipy.spatial') "
                "if m in sys.modules))")
        src = str(Path(pwscert.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
