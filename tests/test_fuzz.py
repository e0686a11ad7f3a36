"""Seeded input fuzzer over the ``pws`` commands.

Each run mutates one value of a valid setup.  For the commands that read a
corpus, that is a number in the scene's PWSPC1 file, a field of
``camera.json`` or ``labels.json``, a numeric option, a field of the model
header or ``PWS_THREADS``; for ``gen-scenes`` and ``train``, a numeric
option; for ``report``, one field of a certify ``summary.json``.  A run
passes when it exits 0, or exits 1 or 2 with one ``kind: message`` line,
or is a usage error of click's own (exit 2, ending in an ``Error:`` line);
an exception that escapes, a numpy warning included, fails it.
"""

import json
import math
import random
import re
import shutil

import pytest
from click.testing import CliRunner

from pwscert.cli import main

pytestmark = pytest.mark.filterwarnings("error")  # a numpy warning escapes too

VALUES = [0, -1, 1e308, -1e308, 1e160, 1e200, math.nan, math.inf, -math.inf, 2**70,
          "x", None, [], 1e-320]
OPTIONS = {
    "certify": ["--sigma", "--n-samples", "--alpha", "--seed", "--radius", "--resolution",
                "--quantile", "--delta"],
    "attack": ["--sigma", "--n-samples", "--alpha", "--seed", "--radius", "--poses"],
    "partition": ["--radius", "--resolution", "--quantile", "--delta"],
}
# gen-scenes runs on the random profile, where every option is read
MAKE_OPTIONS = {
    "gen-scenes": ["--classes", "--per-class", "--points", "--grid", "--channels", "--depth",
                   "--focal", "--seed"],
    "train": ["--sigma", "--augment", "--downsample", "--seed"],
}
MESSAGE = re.compile(r"[a-z_]+: \S")


def _text(value) -> str:
    return "null" if value is None else "[]" if value == [] else str(value)


def _mutate(rng, work, command, opts, env) -> str:
    """Change one value of the run in ``work``; return what changed."""
    value = rng.choice(VALUES)
    target = rng.choice(["cloud", "camera", "labels", "option", "model", "threads"])
    if target == "cloud":
        path = next((work / "corpus" / "scenes").iterdir())
        lines = path.read_text().split("\n")
        numbers = [(i, j) for i, line in enumerate(lines) for j, token in
                   enumerate(line.split()) if re.fullmatch(r"-?[0-9.e+-]+", token)]
        i, j = rng.choice(numbers)
        tokens = lines[i].split()
        tokens[j] = _text(value)
        lines[i] = " ".join(tokens)
        path.write_text("\n".join(lines))
        return f"{path.name} line {i} token {j} = {value!r}"
    if target in ("camera", "labels"):
        path = work / "corpus" / f"{target}.json"
        data = json.loads(path.read_text())
        key = rng.choice(sorted(data))
        data[key] = value
        path.write_text(json.dumps(data))
        return f"{target}.json {key} = {value!r}"
    if target == "model":
        path = work / "model.pws"
        head, body = path.read_bytes().split(b"\n", 1)
        header = json.loads(head)
        key = rng.choice(sorted(header))
        header[key] = value
        path.write_bytes(json.dumps(header).encode() + b"\n" + body)
        return f"model header {key} = {value!r}"
    if target == "threads":
        env["PWS_THREADS"] = _text(value)
        return f"PWS_THREADS = {value!r}"
    key = rng.choice(OPTIONS[command])
    if key == "--delta":
        opts["--method"] = "one-frame"
    unit = ("mm" if opts["--axis"].startswith("t") else "rad") if key == "--radius" else ""
    opts[key] = _text(value) + unit
    return f"{key} {opts[key]}"


def _failure(res):
    """None if ``res`` exited 0, with one ``kind: message`` line at status 1
    or 2, or with a usage error of click's own; else what went wrong."""
    lines = res.output.splitlines()
    typed = res.exit_code in (1, 2) and len(lines) == 1 and MESSAGE.match(lines[0])
    usage = res.exit_code == 2 and lines and lines[-1].startswith("Error: ")
    escaped = res.exception is not None and not isinstance(res.exception, SystemExit)
    if escaped or not (res.exit_code == 0 or typed or usage):
        return f"exit {res.exit_code}, {res.exception!r}, {lines[-1:]}"
    return None


def _setup(runner, tmp_path):
    """A two-scene demo corpus and its model."""
    full, model = tmp_path / "full", tmp_path / "model.pws"
    for argv in (["gen-scenes", "--out", str(full), "--classes", "2", "--per-class", "1"],
                 ["train", "--corpus", str(full), "--out", str(model), "--augment", "1"]):
        res = runner.invoke(main, argv)
        assert res.exit_code == 0, res.output
    return full, model


def test_one_mutated_value_ends_in_a_typed_error_or_a_result(tmp_path):
    runner = CliRunner()
    full, model = _setup(runner, tmp_path)
    # one scene: the corpus of every run
    good = tmp_path / "good"
    labels = json.loads((full / "labels.json").read_text())
    name = sorted(labels)[0]
    (good / "scenes").mkdir(parents=True)
    shutil.copy(full / "camera.json", good)
    shutil.copy(full / "scenes" / f"{name}.pwspc", good / "scenes")
    (good / "labels.json").write_text(json.dumps({name: labels[name]}))

    rng = random.Random(20261022)
    failures = []
    for run in range(300):
        work = tmp_path / f"run{run}"
        shutil.copytree(good, work / "corpus")
        shutil.copy(model, work)
        command = rng.choice(sorted(OPTIONS))
        axis = rng.choice(["tx", "tz", "ry", "rz"])
        opts = {"--axis": axis, "--radius": "36mm" if axis.startswith("t") else "0.03rad",
                "--method": rng.choice(["exact", "lipschitz", "one-frame"])}
        if command != "partition":
            opts.update({"--model": str(work / "model.pws"), "--out": str(work / "out"),
                         "--n-samples": "100"})
        if command == "attack":
            opts["--poses"] = "20"
            del opts["--method"]
        else:
            opts.update({"--resolution": "201", "--delta": "0.015"})
        env = {}
        what = _mutate(rng, work, command, opts, env)
        if opts.get("--method") != "one-frame":
            opts.pop("--delta", None)
        argv = [command, "--corpus", str(work / "corpus")]
        for key, value in opts.items():
            argv += [key, value]
        res = runner.invoke(main, argv, env=env)
        if failure := _failure(res):
            failures.append(f"{command} {axis}, {what}: {failure}")
        shutil.rmtree(work)
    assert not failures, "\n".join(failures)


def _mutate_summary(rng, path, value) -> str:
    """Change one field of the certify summary at ``path``; return which."""
    summary = json.loads(path.read_text())
    fields = [("certified_accuracy",), *(("config", key) for key in summary["config"])]
    for name, sample in summary["samples"].items():
        fields += [("samples", name, key) for key in sample]
    *parents, key = rng.choice(fields)
    holder = summary
    for parent in parents:
        holder = holder[parent]
    holder[key] = value
    path.write_text(json.dumps(summary))
    return f"summary {'.'.join([*parents, key])} = {value!r}"


def test_mutated_make_options_and_summaries_end_in_a_typed_error_or_a_result(tmp_path):
    runner = CliRunner()
    full, model = _setup(runner, tmp_path)
    runs = tmp_path / "runs"
    res = runner.invoke(main, ["certify", "--corpus", str(full), "--model", str(model),
                               "--axis", "tz", "--radius", "36mm", "--n-samples", "100",
                               "--resolution", "201", "--out", str(runs)])
    assert res.exit_code == 0, res.output

    rng = random.Random(20261023)
    failures = []
    for run in range(90):
        work = tmp_path / f"run{run}"
        command = rng.choice(["gen-scenes", "train", "report"])
        value = rng.choice(VALUES)
        if command == "report":
            shutil.copytree(runs, work / "runs")
            what = _mutate_summary(rng, work / "runs" / "summary.json", value)
            argv = ["report", "--runs", str(work / "runs"), "--out", str(work / "table.csv")]
        else:
            if command == "gen-scenes":
                opts = {"--profile": "random", "--classes": "2", "--per-class": "1",
                        "--grid": "16", "--points": "300"}
            else:
                opts = {"--corpus": str(full), "--augment": "1"}
            key = rng.choice(MAKE_OPTIONS[command])
            text = _text(value)
            # one end of the depth band
            opts[key] = rng.choice([f"{text}:2.4", f"1.6:{text}"]) if key == "--depth" else text
            what = f"{key} {opts[key]}"
            argv = [command, "--out", str(work / "out")]
            for option, text in opts.items():
                argv += [option, text]
        if failure := _failure(runner.invoke(main, argv)):
            failures.append(f"{command}, {what}: {failure}")
        shutil.rmtree(work, ignore_errors=True)
    assert not failures, "\n".join(failures)
