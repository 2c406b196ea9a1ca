"""Multi-domain training benchmark: three schedules compared on one small,
noisy domain's held-out localization error.

The setup follows the canonical small-target-domain story: two large clean
domains (2000 samples each) and one small noisy domain (200 samples), with
every schedule given the same per-stage learning rate and the step budgets
kept in the presets' proportions. Reported numbers are the mean held-out
keypoint error of the small domain over a set of seeds. ``run_benchmark``
takes no arguments: the constants below fix every size, seed and budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .synthetic import DEFAULT_DOMAINS, gen_synthetic
from .training import (
    staged_schedule,
    multi_domain_schedule,
    single_domain_schedule,
    train,
)

SEEDS = (0, 1, 2, 3, 4)   # training seeds; each result averages over them
TARGET = "posetrack"      # the small noisy domain whose held-out error is reported
TRAIN_SIZES = {"coco": 2000, "mpii": 2000, "posetrack": 200}
HELDOUT_SIZE = 100
JOINT_STEPS = 500         # S, the joint stage of the multi-stage schedule
LR = 1.2
DATA_SEED = 5
HELDOUT_SEED = 995


@dataclass
class BenchmarkResult:
    """Per-schedule held-out errors (small domain), one entry per seed."""

    errors: dict = field(default_factory=dict)

    def mean(self, name: str) -> float:
        return float(np.mean(self.errors[name]))

    def summary(self) -> dict:
        return {name: self.mean(name) for name in self.errors}


def run_benchmark() -> BenchmarkResult:
    """Compare the full multi-stage schedule against train-on-target-only and
    joint-training-without-fine-tune, at the module's constants.

    Budgets keep the presets' stage proportions: the multi-stage schedule
    runs (S, 0.15 S, 0.2 S) steps and the two baselines get the same total.
    """
    specs = DEFAULT_DOMAINS
    domains = tuple(specs)
    data = {d: gen_synthetic(specs[d], TRAIN_SIZES[d], seed=DATA_SEED) for d in domains}
    heldout = {TARGET: gen_synthetic(specs[TARGET], HELDOUT_SIZE, seed=HELDOUT_SEED)}

    s1, s2, s3 = JOINT_STEPS, round(0.15 * JOINT_STEPS), round(0.2 * JOINT_STEPS)
    total = s1 + s2 + s3
    schedules = {
        "staged": staged_schedule(domains=domains, primary="coco",
                                  steps=(s1, s2, s3), lr=LR),
        "target-only": single_domain_schedule(TARGET, steps=total, lr=LR),
        "multi-domain-no-ft": multi_domain_schedule(domains=domains,
                                                    steps=total, lr=LR),
    }
    result = BenchmarkResult()
    for name, schedule in schedules.items():
        errs = []
        for seed in SEEDS:
            _, log = train(schedule, data, seed=seed, heldout=heldout)
            errs.append(log[-1]["heldout"][TARGET])
        result.errors[name] = errs
    return result
