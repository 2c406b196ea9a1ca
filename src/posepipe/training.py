"""Training schedules for the multi-domain toy network.

A schedule is an ordered list of stages; each stage picks its datasets, its
trainable parameter blocks, a loss (plain masked L2 or hard-keypoint mining),
a step count and a learning rate. Plain SGD throughout, batch order drawn
from a seeded generator, so runs are bit-reproducible.

Presets:

* ``single_domain_schedule`` - train on one dataset only.
* ``multi_domain_schedule`` - joint training over all heads, no fine-tuning.
* ``transfer_schedule`` - train on a source domain, then fine-tune everything
  on the target.
* ``mixed_schedule`` - one merged-vocabulary head over pooled datasets
  (build the network with ``domains=("merged",)``).
* ``staged_schedule`` - joint training, then a full fine-tune on the primary
  domain, then a frozen-backbone fine-tune of the remaining heads on the
  remaining domains. The joint stage switches to hard-keypoint mining for
  its final sixth, and later stages keep it.

``PRESETS`` names each preset for a ``train-toy`` config, and ``TrainConfig``
reads such a config whole.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import PoseError, checked
from .heatmaps import peaks
from .poseio import read_document
from .skeletons import get_joint_set, mapping
from .toynet import (NetConfig, ToyNetwork, check_loss, forward, gradients, init_network,
                     param_shapes, sgd_step)
from .synthetic import DEFAULT_DOMAINS, DomainSpec, project_to_merged

DEFAULT_LR = 1.2
DEFAULT_BATCH = 8
DEFAULT_OHKM_K = 8
HELDOUT_REFERENCES = ("annotation", "truth")
HELDOUT_CHUNK = 8   # held-out samples per forward call
# bytes a train-toy config may ask for: its parameters, its generated samples
# and its largest batch's conv2 im2col matrix (see TrainConfig.footprint)
TRAIN_BYTES_LIMIT = 2**30


@dataclass(frozen=True)
class Stage:
    name: str
    domains: tuple[str, ...]
    trainable: tuple[str, ...] | str = "all"     # "all" or tuple of block names
    loss: str = "l2"
    ohkm_k: int = DEFAULT_OHKM_K
    steps: int = 100
    lr: float = DEFAULT_LR
    batch_size: int = DEFAULT_BATCH

    def __post_init__(self):
        object.__setattr__(self, "domains", tuple(self.domains))
        if not isinstance(self.trainable, str):
            object.__setattr__(self, "trainable", tuple(self.trainable))
        elif self.trainable != "all":
            raise PoseError(f"stage trainable must be 'all' or a list of block names, "
                            f"got {self.trainable!r}")
        if (not self.domains or self.steps < 0 or self.batch_size < 1
                or not 0 < self.lr < math.inf):
            raise PoseError(f"bad stage configuration {self!r}")
        check_loss(self.loss, self.ohkm_k)


@dataclass
class TrainSchedule:
    stages: list

    def __post_init__(self):
        if not self.stages:
            raise PoseError("schedule needs at least one stage")


def check_stages(schedule: TrainSchedule, data, blocks) -> None:
    """Raise unless every stage's domains have a non-empty entry in data
    and its ``trainable`` names only blocks."""
    for stage in schedule.stages:
        missing = [d for d in stage.domains if not data.get(d)]
        if missing:
            raise PoseError(f"stage {stage.name!r} has no data for domains {missing}")
        unknown = set(stage.trainable) - set(blocks) if stage.trainable != "all" else ()
        if unknown:
            raise PoseError(f"stage {stage.name!r} trains unknown parameter blocks "
                            f"{sorted(unknown)}")


def _l2_then_ohkm(prefix: str, domains, steps: int, lr: float,
                  batch_size: int) -> list:
    """``<prefix>-l2`` then ``<prefix>-ohkm`` over all blocks; the mining
    stage takes the final sixth of the steps, rounded exactly (half to even)."""
    ohkm_steps = round(Fraction(steps, 6))
    return [
        Stage(f"{prefix}-l2", tuple(domains), "all", "l2", steps=steps - ohkm_steps,
              lr=lr, batch_size=batch_size),
        Stage(f"{prefix}-ohkm", tuple(domains), "all", "ohkm", steps=ohkm_steps,
              lr=lr, batch_size=batch_size),
    ]


def single_domain_schedule(domain: str, steps: int = 2000, lr: float = DEFAULT_LR,
                           batch_size: int = DEFAULT_BATCH) -> TrainSchedule:
    return TrainSchedule(_l2_then_ohkm(domain, (domain,), steps, lr, batch_size))


def multi_domain_schedule(domains: tuple[str, ...] = ("coco", "mpii", "posetrack"),
                          steps: int = 2000, lr: float = DEFAULT_LR,
                          batch_size: int = DEFAULT_BATCH) -> TrainSchedule:
    return TrainSchedule(_l2_then_ohkm("joint", domains, steps, lr, batch_size))


def transfer_schedule(source: str, target: str, steps: tuple[int, int] = (2000, 400),
                      lr: float = DEFAULT_LR,
                      batch_size: int = DEFAULT_BATCH) -> TrainSchedule:
    return TrainSchedule(_l2_then_ohkm(source, (source,), steps[0], lr, batch_size) + [
        Stage(f"finetune-{target}", (target,), "all", "ohkm", steps=steps[1], lr=lr,
              batch_size=batch_size),
    ])


def mixed_schedule(domains: tuple[str, ...] = ("coco", "mpii", "posetrack"),
                   steps: int = 2000, lr: float = DEFAULT_LR,
                   batch_size: int = DEFAULT_BATCH) -> TrainSchedule:
    return TrainSchedule(_l2_then_ohkm("mixed", domains, steps, lr, batch_size))


def staged_schedule(domains: tuple[str, ...] = ("coco", "mpii", "posetrack"),
                    primary: str = "coco", steps: tuple[int, int, int] = (2000, 300, 400),
                    lr: float = DEFAULT_LR, batch_size: int = DEFAULT_BATCH) -> TrainSchedule:
    if primary not in domains:
        raise PoseError(f"primary domain {primary!r} not in {domains}")
    others = tuple(d for d in domains if d != primary)
    return TrainSchedule(_l2_then_ohkm("joint", domains, steps[0], lr, batch_size) + [
        Stage(f"finetune-{primary}", (primary,), "all", "ohkm", steps=steps[1],
              lr=lr, batch_size=batch_size),
        Stage("finetune-heads", others, tuple(f"head.{d}" for d in others),
              "ohkm", steps=steps[2], lr=lr, batch_size=batch_size),
    ])


PRESETS = {"staged": staged_schedule, "single": single_domain_schedule,
           "multi": multi_domain_schedule, "mixed": mixed_schedule,
           "transfer": transfer_schedule}


def _schedule_from_dict(doc: dict) -> TrainSchedule:
    """A config's ``schedule``: ``stages`` alone (``name`` "stage" by default,
    ``steps`` required), or a ``preset`` ("staged") and its arguments."""
    if "stages" in doc:
        stages = checked(TrainSchedule, doc, "train schedule")["stages"]
        return TrainSchedule([
            Stage(**{"name": "stage",
                     **checked(Stage, s, "train stage", required=("domains", "steps"))})
            for s in stages])
    args = dict(doc)
    preset = args.pop("preset", "staged")
    if not isinstance(preset, str) or preset not in PRESETS:
        raise PoseError(f"unknown schedule preset {preset!r}")
    fn = PRESETS[preset]
    return fn(**checked(fn, args, f"train schedule preset {preset!r}"))


@dataclass
class TrainConfig:
    """A ``train-toy`` config document's eight keys. ``load`` checks the keys
    and value types; building makes ``net_config``, ``domain_specs`` (in
    document order) and ``train_schedule`` and checks every range, every
    name the schedule uses and that the ``footprint`` is within
    ``TRAIN_BYTES_LIMIT``. All of it happens before any data is made."""

    schedule: dict = field(default_factory=dict)
    domains: dict = field(default_factory=lambda: {n: {} for n in DEFAULT_DOMAINS})
    net: dict = field(default_factory=dict)   # NetConfig fields; domains: those above
    train_sizes: dict[str, int] = None        # domain -> sample count; 200 each
    heldout_sizes: dict[str, int] = None      # domain -> sample count; 50 each
    data_seed: int = 5
    heldout_seed: int = 995
    heldout_reference: str = "annotation"

    def __post_init__(self):
        net = self.net_config = NetConfig(**{"domains": tuple(self.domains),
                                             **checked(NetConfig, self.net, "train config net")})
        # the grid geometry comes from net, the same for every domain
        geometry = {k: getattr(net, k) for k in ("height", "width", "in_channels")}
        self.domain_specs = {}
        for name, doc in self.domains.items():
            doc = checked(DomainSpec, doc, f"train config domain {name!r}",
                          exclude=("name", *geometry))
            base = DEFAULT_DOMAINS.get(name) or DomainSpec(name)
            self.domain_specs[name] = dataclasses.replace(base, **doc, **geometry)
            if name not in net.domains and net.domains != ("merged",):
                raise PoseError(f"network has no head for domain {name!r}")
        for key, default in (("train_sizes", 200), ("heldout_sizes", 50)):
            if getattr(self, key) is None:
                setattr(self, key, dict.fromkeys(self.domain_specs, default))
            for name in self.domain_specs:
                if not getattr(self, key).get(name, 0) >= 1:
                    raise PoseError(f"train config {key}[{name!r}] must be an integer >= 1")
        if self.data_seed < 0 or self.heldout_seed < 0:
            raise PoseError("train config seeds must be >= 0")
        check_heldout_reference(self.heldout_reference)
        self.train_schedule = _schedule_from_dict(self.schedule)
        check_stages(self.train_schedule, self.domain_specs, net.blocks())
        if self.footprint() > TRAIN_BYTES_LIMIT:
            raise PoseError(f"train config asks for more than {TRAIN_BYTES_LIMIT} bytes of "
                            f"parameters, samples and conv2 im2col matrix")

    def footprint(self) -> int:
        """Bytes of float64 the config asks for, computed without allocating:
        the parameters, every generated training and held-out sample (input
        and target planes) and the conv2 im2col matrix of the largest batch
        (a stage's or a held-out chunk)."""
        net = self.net_config
        params = sum(math.prod(shape) for shape in param_shapes(net).values())
        planes = sum((self.train_sizes[n] + self.heldout_sizes[n])
                     * (net.in_channels + get_joint_set(n).count) for n in self.domain_specs)
        batch = max([HELDOUT_CHUNK] + [s.batch_size for s in self.train_schedule.stages])
        return 8 * (params + net.height * net.width * (planes + batch * net.hidden * 9))

    @classmethod
    def load(cls, path) -> "TrainConfig":
        return read_document(path, "train config",
                             lambda doc: cls(**checked(cls, doc, "train config")))


def check_heldout_reference(reference: str) -> None:
    """Raise unless :func:`heldout_error` can score against reference."""
    if reference not in HELDOUT_REFERENCES:
        raise PoseError(f"unknown reference {reference!r}")


def scored_samples(net: ToyNetwork, samples) -> list:
    """samples as :func:`heldout_error` scores them on net (in the merged
    vocabulary for a merged-only net); PoseError if none annotates a joint."""
    if tuple(net.config.domains) == ("merged",):
        samples = [project_to_merged(s) for s in samples]
    if not any(s.mask.any() for s in samples):
        raise PoseError("no held-out sample has an annotated joint")
    return samples


def heldout_error(net: ToyNetwork, samples, reference: str = "annotation") -> float:
    """Mean keypoint localization error (grid cells) over annotated joints.

    reference "annotation" scores against the domain's own (possibly biased)
    labels; "truth" scores against the underlying figure, which the synthetic
    world knows exactly, so that a domain's systematic annotation offset
    counts against models that learned to reproduce it. The multi-domain
    benchmark (``run_benchmark``) scores against "annotation". The forward
    pass runs on chunks of ``HELDOUT_CHUNK`` samples; peaks and errors are
    per sample. PoseError if no sample annotates a joint.
    """
    check_heldout_reference(reference)
    samples = scored_samples(net, samples)
    errs = []
    for start in range(0, len(samples), HELDOUT_CHUNK):
        chunk = samples[start:start + HELDOUT_CHUNK]
        x = np.stack([np.asarray(s.input, dtype=np.float64) for s in chunk])
        outputs, _ = forward(net, x, domains=tuple(dict.fromkeys(s.domain for s in chunk)))
        for j, s in enumerate(chunk):
            if not s.mask.any():
                continue
            if reference == "truth":
                target = mapping("merged", s.domain).take(s.latent)
            else:
                target = s.keypoints
            decoded, _ = peaks(outputs[s.domain][j])
            errs.append(np.linalg.norm(decoded[s.mask] - target[s.mask], axis=1).mean())
    return float(np.mean(errs))


def train(schedule: TrainSchedule, datasets: dict, seed: int,
          config: NetConfig = None, heldout: dict = None, log_path=None,
          heldout_reference: str = "annotation"):
    """Run the schedule with SGD from ``init_network(config, seed)``;
    bit-reproducible for a given seed.

    datasets/heldout map domain name -> list of Samples; every stage is
    checked (``check_stages``), and every held-out set (``scored_samples``),
    before the first step. Returns (network, log)
    where log is a list of dicts, one per stage, each with the per-domain
    held-out error when held-out data is provided; with log_path each entry
    is also appended there as a JSON line.
    """
    net = init_network(config or NetConfig(), seed)
    merged_only = tuple(net.config.domains) == ("merged",)
    log = []
    check_stages(schedule, datasets, net.blocks())
    for samples in (heldout or {}).values():
        scored_samples(net, samples)
    for stage_index, stage in enumerate(schedule.stages):
        pools = [[project_to_merged(s) if merged_only else s for s in datasets[d]]
                 for d in stage.domains]
        if stage.trainable == "all":
            net.set_frozen(())
        else:
            net.set_frozen(set(net.blocks()) - set(stage.trainable))
        rng = np.random.default_rng([seed, 101, stage_index])
        for _ in range(stage.steps):
            # batches balance domains: slot -> uniform domain -> uniform sample
            doms = rng.integers(0, len(pools), size=stage.batch_size)
            batch = [pools[d][rng.integers(0, len(pools[d]))] for d in doms]
            grads, _ = gradients(net, batch, stage.loss, stage.ohkm_k)
            sgd_step(net, grads, stage.lr)
        entry = {"stage": stage_index, "name": stage.name, "step": stage.steps}
        if heldout:
            entry["heldout"] = {d: heldout_error(net, ss, heldout_reference)
                                for d, ss in sorted(heldout.items())}
        log.append(entry)
        if log_path is not None:
            with open(log_path, "a") as f:
                f.write(json.dumps(entry) + "\n")
    return net, log
