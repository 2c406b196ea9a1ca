"""Multi-domain training benchmark: three schedules compared on one small,
noisy domain's held-out localization error.

The setup follows the canonical small-target-domain story: two large clean
domains (2000 samples each) and one small noisy domain (200 samples), with
every schedule given the same per-stage learning rate and the step budgets
kept in the presets' proportions. Reported numbers are the mean held-out
keypoint error of the small domain over a set of seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .synthetic import DEFAULT_DOMAINS, gen_synthetic
from .toynet import NetConfig
from .training import (
    staged_schedule,
    multi_domain_schedule,
    single_domain_schedule,
    train,
)


@dataclass
class BenchmarkResult:
    """Per-schedule held-out errors (small domain), one entry per seed."""

    errors: dict = field(default_factory=dict)
    seeds: tuple = ()

    def mean(self, name: str) -> float:
        return float(np.mean(self.errors[name]))

    def summary(self) -> dict:
        return {name: self.mean(name) for name in self.errors}


def run_benchmark(seeds=(0, 1, 2, 3, 4), target: str = "posetrack",
                  train_sizes=None, heldout_size: int = 100,
                  joint_steps: int = 500, lr: float = 1.2,
                  config: NetConfig = None, data_seed: int = 5,
                  heldout_seed: int = 995,
                  heldout_reference: str = "annotation") -> BenchmarkResult:
    """Compare the full multi-stage schedule against train-on-target-only and
    joint-training-without-fine-tune.

    Budgets keep the presets' stage proportions: the multi-stage schedule
    runs (S, 0.15 S, 0.2 S) steps and the two baselines get the same total.
    """
    if config is None:
        config = NetConfig()
    if train_sizes is None:
        train_sizes = {"coco": 2000, "mpii": 2000, "posetrack": 200}
    specs = DEFAULT_DOMAINS
    domains = tuple(specs)
    data = {d: gen_synthetic(specs[d], train_sizes[d], seed=data_seed) for d in domains}
    heldout = {target: gen_synthetic(specs[target], heldout_size, seed=heldout_seed)}

    s1, s2, s3 = joint_steps, round(0.15 * joint_steps), round(0.2 * joint_steps)
    total = s1 + s2 + s3
    schedules = {
        "staged": staged_schedule(domains=domains, primary="coco",
                              steps=(s1, s2, s3), lr=lr),
        "target-only": single_domain_schedule(target, steps=total, lr=lr),
        "multi-domain-no-ft": multi_domain_schedule(domains=domains,
                                                    steps=total, lr=lr),
    }
    result = BenchmarkResult(seeds=tuple(seeds))
    for name, schedule in schedules.items():
        errs = []
        for seed in seeds:
            _, log = train(schedule, data, seed=seed, config=config,
                           heldout=heldout, heldout_reference=heldout_reference)
            errs.append(log[-1]["heldout"][target])
        result.errors[name] = errs
    return result
