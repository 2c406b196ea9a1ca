"""Fuzz the two JSON config records: a document of JSON-shaped values, NaN,
+-inf and huge integers included, either builds a config or raises
PoseError. Configs are only constructed here, never run or trained."""

import types
import typing

from hypothesis import example, given, settings, strategies as st

from posepipe import PoseError
from posepipe.config import PipelineConfig
from posepipe.errors import checked, parameters
from posepipe.synthetic import DomainSpec
from posepipe.toynet import NetConfig
from posepipe.training import PRESETS, Stage, TrainConfig

_HUGE = [2**63, 10**400, -10**400]
_INTS = st.sampled_from([0, 1, 2, -1, *_HUGE]) | st.integers()
_NUMBERS = st.sampled_from([0.0, 0.5, 1, *_HUGE, float("nan"), float("inf"),
                            float("-inf")]) | st.floats()
# names the configs read, so that documents get past the name checks
_NAMES = st.sampled_from((
    "coco", "mpii", "posetrack", "merged", "nope", "all", "head.coco", "head.nope",
    "backbone.conv1", "l2", "ohkm", "hungarian", "greedy", "identity", "vote",
    "select:coco", "head-swap:coco,mpii", "annotation", "truth", "nose", *PRESETS,
)) | st.text(max_size=3)
_ANY = st.recursive(st.none() | st.booleans() | _NUMBERS | _NAMES,
                    lambda inner: st.lists(inner, max_size=3)
                    | st.dictionaries(_NAMES, inner, max_size=3), max_leaves=5)


def _typed(ann):
    """JSON values of the type annotation ann reads, often at the edges."""
    origin, args = typing.get_origin(ann), typing.get_args(ann)
    if origin is types.UnionType:
        return st.one_of([_typed(a) for a in args])
    if origin is tuple:
        if args[1:] == (Ellipsis,):
            return st.lists(_typed(args[0]), max_size=3)
        return st.tuples(*map(_typed, args)).map(list)
    if origin is dict:
        return st.dictionaries(_NAMES, _typed(args[1]), max_size=2)
    return {int: _INTS, float: _NUMBERS, bool: st.booleans(), str: _NAMES,
            dict: st.dictionaries(_NAMES, _NUMBERS, max_size=2),
            list: st.lists(_ANY, max_size=3)}[ann]


def _record(fn, exclude=(), **values):
    """A JSON object of up to three of fn's keyword arguments less exclude,
    each with a value of its annotated type (or one from values); now and
    then any JSON values or an unknown key instead."""
    typed = {k: values.get(k, _typed(ann)) for k, (ann, _) in parameters(fn).items()
             if k not in exclude}
    return (st.lists(st.sampled_from(sorted(typed)), max_size=3, unique=True).flatmap(
        lambda keys: st.fixed_dictionaries({k: typed[k] for k in keys}))
        | st.dictionaries(st.sampled_from([*typed, "typo"]), _ANY, max_size=2))


_SIZES = st.dictionaries(_NAMES, _INTS, max_size=3)
_SCHEDULES = st.one_of(
    [_record(fn).map(lambda d, name=name: {"preset": name, **d})
     for name, fn in PRESETS.items()]
    + [st.fixed_dictionaries({"stages": st.lists(_record(Stage), max_size=3)})])
_TRAIN_DOCS = _record(
    TrainConfig, schedule=_SCHEDULES,
    domains=st.dictionaries(_NAMES, _record(DomainSpec, exclude=("name",)), max_size=3),
    net=_record(NetConfig), train_sizes=_SIZES, heldout_sizes=_SIZES)

_FUZZ = settings(derandomize=True, max_examples=200, deadline=None)


@_FUZZ
@given(_record(PipelineConfig))
@example({"oks_extra_falloff": 10**400})
@example({"oks_falloff_overrides": {"nose": 10**400}})
def test_pipeline_config_from_any_json_raises_only_pose_error(doc):
    try:
        PipelineConfig.from_dict(doc)
    except PoseError:
        pass


@_FUZZ
@given(_TRAIN_DOCS)
@example({"schedule": {"preset": "single", "domain": "coco", "steps": 10**400}})
def test_train_config_from_any_json_raises_only_pose_error(doc):
    try:
        TrainConfig(**checked(TrainConfig, doc, "train config"))
    except PoseError:
        pass
