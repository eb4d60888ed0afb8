"""The benchmark's tracer wraps library functions by name from outside the
package; every name it binds must still resolve, or ``bench/run.py --trace 1``
breaks."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer() -> dict:
    # executed from its text, so nothing (not even bytecode) is written under bench/
    namespace = {"__name__": "bench_tracer"}
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), namespace)
    return namespace


def test_every_traced_name_resolves():
    tracer = load_tracer()
    bindings = [entry[:2] for entry in tracer["SPANS"] + tracer["COUNTS"]]
    assert len(bindings) > 20
    for module_name, attr in bindings:
        module = importlib.import_module(module_name)
        if "." in attr:
            # the tracer replaces the method in the class dict
            cls_name, meth = attr.split(".")
            assert callable(vars(getattr(module, cls_name)).get(meth)), (module_name, attr)
        else:
            assert callable(getattr(module, attr, None)), (module_name, attr)


def traced_and_plain(tmp_path, args) -> list[dict]:
    """The spans of one traced run, after checking that its stdout is the
    plain run's."""
    spans_file = tmp_path / "spans.jsonl"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    traced = subprocess.run(
        [sys.executable, str(TRACER), str(spans_file), "probe", "--", *args],
        capture_output=True, env=env, check=True)
    plain = subprocess.run(
        [sys.executable, "-m", "parthom", *args], capture_output=True, env=env, check=True)
    assert traced.stdout == plain.stdout
    return [json.loads(line) for line in spans_file.read_text().splitlines()]


def test_traced_homology_run_records_the_topology_spans(tmp_path):
    spans = traced_and_plain(tmp_path, ["homology", "--n", "5", "--poset", "full", "--no-cache"])
    names = {span["name"] for span in spans}
    assert {"topology.order_complex", "topology.d2_check", "topology.homology",
            "snf.invariant_factors"} <= names
    # the residual handed to the Smith normal form is a matrix with its sizes
    snf = [span["attrs"] for span in spans if span["name"] == "snf.invariant_factors"]
    assert all({"nnz", "rows", "cols", "rank"} <= set(attrs) for attrs in snf)


def test_traced_sf_run_records_the_conversion_spans(tmp_path):
    # the entry point loads reps lazily: the tracer must still wrap what runs.
    # The module prints from its class values, so no SymFunc span fires
    args = ["sf", "--family", "whitehouse", "--n", "7", "--k", "3", "--basis", "s", "--no-cache"]
    spans = traced_and_plain(tmp_path, args)
    names = [span["name"] for span in spans]
    assert "reps.whitehouse_module" in names



@pytest.mark.parametrize("args, expected", [
    (["report", "--family", "qnk", "--n", "5", "--k", "3"],
     {"checks.subposet_homology_report", "topology.homology", "topology.lefschetz"}),
    (["alpha", "--n", "5", "--ranks", "1,2", "--method", "chains"],
     {"poset.fixed_chain_count"}),
])
def test_traced_library_calls_through_checks_and_reps_record_their_spans(
        tmp_path, args, expected):
    # checks and reps name these functions through their modules at call
    # time, so the tracer's rebinding reaches them
    spans = traced_and_plain(tmp_path, [*args, "--no-cache"])
    assert expected <= {span["name"] for span in spans}
