"""The benchmark's seed-0 pose pins, rebuilt in-process.

``perfbench/run.py`` refuses a run whose seed-0 pose file differs from
``perfbench/pins.json``. These tests build both workloads' seed-0 inputs
with the benchmark's own functions, run one untimed pass and compare the
pose file's sha256 to the pin, so a change that moves those bytes fails
here first. The workloads reach what the golden scene does not: vote fusion
(crowd) and Hungarian matrices up to 20 wide.

The checkpoint pin is not checked here: its bytes depend on the BLAS kernel
numpy runs on, which nothing records yet.
"""

import importlib.util
import json
import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


@pytest.fixture(scope="module")
def bench():
    """perfbench/run.py as a module. Importing it sets the *_NUM_THREADS
    variables, so the environment is put back afterwards; it is registered
    in sys.modules first because its dataclasses look their module up."""
    spec = importlib.util.spec_from_file_location("perfbench_run",
                                                  os.path.join(PERFBENCH, "run.py"))
    module = importlib.util.module_from_spec(spec)
    environ = dict(os.environ)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        os.environ.clear()
        os.environ.update(environ)
    yield module
    del sys.modules[spec.name]


@pytest.mark.parametrize("workload", ["long-sparse", "crowd"])
def test_seed0_pose_file_matches_perfbench_pin(bench, workload, tmp_path):
    scene_spec, train_spec = bench.WORKLOADS[workload]
    persons = bench.pick_persons(str(tmp_path), scene_spec, 0)
    scene = bench.build_scene(str(tmp_path / "inputs"), scene_spec, persons)
    datasets, heldout = bench.build_training(train_spec, 0)
    out = tmp_path / "out"
    out.mkdir()
    p = bench.Pass(scene, train_spec, datasets, heldout, str(out))
    result = p.finish(p.timed(probe=False))
    with open(os.path.join(PERFBENCH, "pins.json")) as f:
        pin = json.load(f)[workload]["pose_sha256"]
    assert result["ok"], result["rcs"]
    assert result["pose_sha256"] == pin
