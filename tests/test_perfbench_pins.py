"""The benchmark's seed-0 pose pins, rebuilt in-process.

``perfbench/run.py`` refuses a run whose seed-0 pose file differs from
``perfbench/pins.json``. These tests build both workloads' seed-0 inputs
with the benchmark's own functions, run one untimed pass and compare the
pose file's sha256 to the pin, so a change that moves those bytes fails
here first. The workloads reach what the golden scene does not: vote fusion
(crowd) and Hungarian matrices up to 20 wide.

The same pass also writes the two eval reports (``eval-map`` and
``eval-mota --json`` on the joined pose file); their sha256 are pinned in
this file, so a change that moves the eval bytes on vote fusion, identity
switches or 20-wide matches fails here too.

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


# sha256 of the seed-0 pass's map.json and mota.json, per workload
_EVAL_SHA256 = {
    "long-sparse": {
        "map.json": "f923c8dfe5a0be2d958c6c9380134a777895a717e651809f1bbf57a76e5ce387",
        "mota.json": "ca225c93047c94986a8d28923523c6fc729a8aada0cdf4e34624cdbd95529c02",
    },
    "crowd": {
        "map.json": "1cb06556b30e844d99c5cf341848e7850ea552ecb7d7fa790bc55923104e2f70",
        "mota.json": "e455ea01a810386d290affa7366845a8a6d8ca41de88307fa6ae4da61eca7dfb",
    },
}


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


@pytest.fixture(scope="module")
def seed0_pass(bench, tmp_path_factory):
    """workload -> (Pass, result) of one untimed seed-0 pass, run on first use."""
    done = {}

    def get(workload):
        if workload not in done:
            root = tmp_path_factory.mktemp(workload)
            scene_spec, train_spec = bench.WORKLOADS[workload]
            persons = bench.pick_persons(str(root), scene_spec, 0)
            scene = bench.build_scene(str(root / "inputs"), scene_spec, persons)
            datasets, heldout = bench.build_training(train_spec, 0)
            out = root / "out"
            out.mkdir()
            p = bench.Pass(scene, train_spec, datasets, heldout, str(out))
            done[workload] = p, p.finish(p.timed(probe=False))
        return done[workload]
    return get


@pytest.mark.parametrize("workload", ["long-sparse", "crowd"])
def test_seed0_pose_file_matches_perfbench_pin(seed0_pass, workload):
    _, result = seed0_pass(workload)
    with open(os.path.join(PERFBENCH, "pins.json")) as f:
        pin = json.load(f)[workload]["pose_sha256"]
    assert result["ok"], result["rcs"]
    assert result["pose_sha256"] == pin


@pytest.mark.parametrize("workload", ["long-sparse", "crowd"])
def test_seed0_eval_reports_match_pins(bench, seed0_pass, workload):
    p, result = seed0_pass(workload)
    assert result["ok"], result["rcs"]
    assert {k: bench.sha256_file(p.out[k]) for k in _EVAL_SHA256[workload]} \
        == _EVAL_SHA256[workload]
