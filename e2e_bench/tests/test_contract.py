"""BENCHMARK.json matches what the runner prints, and the runner's exits."""

import json
import shutil
import subprocess
import sys

import pytest

from e2e_bench.measures import NAME_RE, UNIT_RE
from e2e_bench.run import END_TO_END, PER_LAYER
from e2e_bench.tests.conftest import ROOT
from e2e_bench.workloads import WORKLOADS

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_top_level_keys():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["paths"] == ["e2e_bench"]
    assert 1 <= SPEC["run_seconds"] <= 60


def test_metric_lists_match_the_runner():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(PER_LAYER)
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_names_units_and_bounds_follow_the_grammar():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME_RE.fullmatch(name) for name in names)
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT_RE.fullmatch(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    for workload in SPEC["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]


@pytest.mark.parametrize("bad", ["", "_x", "a b", "x" * 65, "é"])
def test_grammar_rejects_bad_names(bad):
    assert not NAME_RE.fullmatch(bad)


@pytest.mark.parametrize("bad", ["", "m s", "x" * 17])
def test_grammar_rejects_bad_units(bad):
    assert not UNIT_RE.fullmatch(bad)


def test_runner_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "e2e_bench", tmp_path / "e2e_bench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "ldbc-matrix",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
