import dataclasses

import pytest

from posepipe import PoseError
from posepipe.config import PipelineConfig
from posepipe.errors import checked, parameters, predicate
from posepipe.pipeline import manifest_instance
from posepipe.poseio import (
    box_entry,
    box_frame,
    document,
    instance_frame,
    pose_instance,
)
from posepipe.skeletons import JointSet
from posepipe.synthetic import DomainSpec
from posepipe.toynet import NetConfig, checkpoint_manifest
from posepipe.training import PRESETS, Stage, TrainConfig, TrainSchedule

# every record and function a JSON config or file record is checked against
JSON_RECORDS = [PipelineConfig, TrainConfig, NetConfig, DomainSpec, Stage, TrainSchedule,
                *PRESETS.values(), document, instance_frame, box_frame,
                pose_instance, box_entry, manifest_instance, JointSet, checkpoint_manifest]
# the parameters a reader passes itself, which no JSON value gives
CONTEXT = {pose_instance: "joint_set", manifest_instance: "base"}


@pytest.mark.parametrize("fn", JSON_RECORDS, ids=lambda fn: fn.__name__)
def test_every_json_record_has_checkable_annotations_and_fitting_defaults(fn):
    factories = {f.name: f.default_factory for f in dataclasses.fields(fn)
                 if f.default_factory is not dataclasses.MISSING
                 } if dataclasses.is_dataclass(fn) else {}
    for name, (ann, p) in parameters(fn).items():
        if name == CONTEXT.get(fn):
            continue
        default = factories[name]() if name in factories else p.default
        ok = predicate(ann)(default)   # TypeError: an annotation it cannot read
        if default is not None and default is not p.empty:
            assert ok, (fn.__name__, name, ann, default)


@pytest.mark.parametrize("ann, good, bad", [
    (int, [0, -3], [True, 1.0, "1", None]),
    (float, [1, 1.5], [False, "1.5", [1.0]]),
    (bool, [True, False], [0, 1, "true"]),
    (str, ["", "coco"], [1, ["coco"]]),
    (dict, [{}, {"a": 1}], [[], "x"]),
    (list, [[], [1]], [{}, "x"]),
    (tuple[str, ...], [[], ["coco", "mpii"]], ["coco", [1], {}]),
    (tuple[float, float], [[0, 0.5]], [[0.5], [0.5, 0.5, 0.5], ["a", "b"], "ab", [True, 0]]),
    (tuple[str, ...] | str, ["all", ["head.coco"]], [5, [5]]),
    (tuple[float, ...], [[], [1.5, 2, -0.0], (1e308, float("nan"))],
     [[1.5, "2"], [True], [10**400], [None]]),
    (tuple[int, ...], [[0, 1, 2**70]], [[1.0], [False, 1]]),
    (dict[str, str], [{}, {"coco": "c.pkhm"}], [{"coco": 5}, ["c.pkhm"], "c.pkhm"]),
])
def test_predicate_reads_each_annotation(ann, good, bad):
    fit = predicate(ann)
    assert all(fit(v) for v in good)
    assert not any(fit(v) for v in bad)


def test_predicate_rejects_an_annotation_it_cannot_read():
    with pytest.raises(TypeError):
        predicate(tuple)
    with pytest.raises(TypeError):
        predicate(tuple[int, str])


def _record(name: str, count: int = 1, offset: tuple[float, float] = (0.0, 0.0)):
    pass


@pytest.mark.parametrize("doc, message", [
    ([], "record must be a JSON object"),
    ({"name": "a", "cuont": 2}, "unknown record keys ['cuont']"),
    ({"count": 2}, "record needs key 'name'"),
    ({"name": "a", "count": 2.0}, "record key 'count' must be int, got float"),
    ({"name": "a", "offset": [1]}, "record key 'offset' must be tuple[float, float], got list"),
])
def test_checked_names_the_first_fault(doc, message):
    with pytest.raises(PoseError) as info:
        checked(_record, doc, "record")
    assert str(info.value) == message


def test_checked_returns_the_document_and_honours_exclude_and_required():
    doc = {"name": "a", "offset": [1, 2]}
    assert checked(_record, doc, "record") is doc
    with pytest.raises(PoseError, match="unknown record keys"):
        checked(_record, doc, "record", exclude=("offset",))
    with pytest.raises(PoseError, match="needs key 'count'"):
        checked(_record, doc, "record", required=("count",))
