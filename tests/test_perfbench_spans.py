"""The benchmark's span table resolves against the package.

``perfbench/spans.py`` reads every hooked attribute when it is imported, and
``perfbench/run.py`` imports it for every run, traced or not. A hooked name
that is deleted or renamed in ``src/`` therefore fails every benchmark run.
This test loads the span module, traces ``run``, ``eval-map`` and
``eval-mota`` on the golden scene, and checks that every pipeline and eval
span fired and that no wrapper is left behind. The counters the tracer
derives from call arguments (``len`` of what ``oks_nms`` is given,
``TrackerState.next_id`` and ``all_tracks()``) are pinned on the same run.
"""

import contextlib
import importlib.util
import io
import os
import sys

import pytest

from posepipe.cli import main

from make_golden import GOLDEN_SEED

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")

# spans of training and of input generation, which run and the evals never reach
_OTHER_LAYERS = ("training.", "toynet.", "scenes.", "synthetic.")


@pytest.fixture(scope="module")
def spans():
    """perfbench/spans.py as a module, registered in sys.modules while used."""
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  os.path.join(PERFBENCH, "spans.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    yield module
    del sys.modules[spec.name]


# counters read from call arguments on the golden scene's traced run
_GOLDEN_COUNTS = {"suppression.oks_nms.instances_in": 11, "suppression.oks_nms.kept": 11,
                  "tracking.matched": 8, "tracking.pruned": 1}


def test_every_pipeline_and_eval_span_fires_on_the_golden_scene(spans, tmp_path):
    scene, pred = tmp_path / "scene", tmp_path / "pred.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["synth", "--out", str(scene), "--seed", str(GOLDEN_SEED)]) == 0
    tracer = spans.Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rcs = [main(["run", "--manifest", str(scene / "manifest.json"),
                         "--out", str(pred)])]
            rcs += [main([command, "--pred", str(pred), "--gt", str(scene / "gt.json")])
                    for command in ("eval-map", "eval-mota")]
    finally:
        tracer.uninstall()
    spans.assert_clean()
    assert rcs == [0, 0, 0]
    summary = tracer.summary()
    names = [n for n in spans.span_names() if not n.startswith(_OTHER_LAYERS)]
    assert "evaluation.match_poses" in names and "tracking.step" in names
    assert [n for n in names if not summary.get(n, {}).get("calls")] == []
    assert tracer.counts["suppression.oks"] > 0
    assert {name: tracer.counts[name] for name in _GOLDEN_COUNTS} == _GOLDEN_COUNTS
