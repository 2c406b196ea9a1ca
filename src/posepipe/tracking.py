"""Frame-to-frame identity association over detected poses.

Tracks extend by OKS similarity between each new detection and a propagated
copy of the track's last instance. Matching runs the Hungarian solver by
default (greedy available for comparison); a track may sit out up to
``lookback`` frames before it is finalized, with the propagator bridging the
gap. Optical flow is out of scope: the propagation slot accepts any callable
``(track, gap) -> PersonInstance``; ``identity`` and ``constant_velocity``
ship with the package. Each frame with detections propagates every live
track exactly once (a stateful callable sees one call per live track per
frame) and scores all track x detection pairs with one stacked ``oks``
call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .assignment import solve_greedy, solve_hungarian
from .errors import PoseError
from .instances import PersonInstance
from .poseio import check_frame_order
from .suppression import OksConstants, oks


@dataclass
class Track:
    """One identity: per-frame history of instances."""

    id: int
    history: dict   # frame index -> PersonInstance

    def __post_init__(self):
        if not self.history:
            raise PoseError("track history must be non-empty")

    @property
    def last_active(self) -> int:
        return max(self.history)

    @property
    def last_instance(self) -> PersonInstance:
        return self.history[self.last_active]

    def __len__(self) -> int:
        return len(self.history)


def identity(track: Track, gap: int) -> PersonInstance:
    """Predict no motion: the track's last instance as-is."""
    return track.last_instance


def constant_velocity(track: Track, gap: int) -> PersonInstance:
    """Extrapolate keypoints and box linearly from the last two observations.

    Falls back to identity with fewer than two observations; gap 0 is always
    the identity.
    """
    if gap == 0 or len(track.history) < 2:
        return track.last_instance
    frames = sorted(track.history)
    t1, t0 = frames[-1], frames[-2]
    cur, prev = track.history[t1], track.history[t0]
    dt = t1 - t0
    vel_kp = (cur.coords - prev.coords) / dt
    vel_box = (cur.box[:2] - prev.box[:2]) / dt
    box = cur.box.copy()
    box[:2] = box[:2] + vel_box * gap
    return cur.replace(box=box, coords=cur.coords + vel_kp * gap)


PROPAGATORS = {"identity": identity, "velocity": constant_velocity}
MATCHERS = {"hungarian": solve_hungarian, "greedy": solve_greedy}


@dataclass
class TrackerConfig:
    sim_threshold: float = 0.3
    lookback: int = 8
    matcher: str = "hungarian"
    propagator: str = "velocity"

    def __post_init__(self):
        if not 0 <= self.sim_threshold <= 1:
            raise PoseError("similarity threshold must be in [0, 1]")
        if self.matcher not in MATCHERS:
            raise PoseError(f"unknown matcher {self.matcher!r}")
        if self.propagator not in PROPAGATORS and not callable(self.propagator):
            raise PoseError(f"unknown propagator {self.propagator!r}")
        if self.lookback < 1:
            raise PoseError("lookback must be >= 1")

    @property
    def propagate(self):
        return PROPAGATORS.get(self.propagator, self.propagator)


def similarity(tracks, candidates, frame: int, prop, consts: OksConstants,
               lookback: int):
    """OKS of each candidate to each propagated track; 0 beyond lookback.

    tracks is a sequence of Tracks and candidates one of PersonInstances;
    the result is the (len(tracks), len(candidates)) matrix. Every track
    within lookback is propagated once, by ``prop(track, gap)``, and all of
    them go through one stacked ``oks`` call; a track more than lookback
    frames back gets a zero row. Nothing is propagated when there is no
    candidate.
    """
    gaps = [frame - t.last_active for t in tracks]
    if any(gap < 1 for gap in gaps):
        raise PoseError("similarity requires frame > track.last_active")
    sims = np.zeros((len(tracks), len(candidates)))
    live = [i for i, gap in enumerate(gaps) if gap <= lookback]
    if live and candidates:
        sims[live] = oks([prop(tracks[i], gaps[i]) for i in live], candidates, consts)
    return sims


@dataclass
class TrackerState:
    """Single-writer association state for one sequence."""

    consts: OksConstants
    config: TrackerConfig = field(default_factory=TrackerConfig)
    active: list = field(default_factory=list)
    finished: list = field(default_factory=list)
    next_id: int = 0
    last_frame: int = None

    def step(self, frame: int, detections) -> list:
        """Associate one frame of detections; returns their track ids in
        detection order."""
        if self.last_frame is not None:
            check_frame_order((self.last_frame, frame))
        self.last_frame = frame
        cfg = self.config

        still, retired = [], []
        for t in self.active:
            (still if frame - t.last_active <= cfg.lookback else retired).append(t)
        self.active = still
        self.finished.extend(retired)

        sims = similarity(self.active, detections, frame, cfg.propagate,
                          self.consts, cfg.lookback)

        matched_dets = {}
        if sims.size:
            assign = MATCHERS[cfg.matcher](1.0 - sims)
            for i, j in assign.items():
                if sims[i, j] >= cfg.sim_threshold:
                    matched_dets[j] = self.active[i]

        ids = []
        for j, det in enumerate(detections):
            if j in matched_dets:
                track = matched_dets[j]
                track.history[frame] = det.replace(track_id=track.id)
            else:
                track = Track(self.next_id, {frame: det.replace(track_id=self.next_id)})
                self.next_id += 1
                self.active.append(track)
            ids.append(track.id)
        return ids

    def all_tracks(self) -> list:
        return sorted(self.finished + self.active, key=lambda t: t.id)


def finalize(state: TrackerState, min_len: int = 2) -> list:
    """All tracks with at least ``min_len`` stored frames, id order."""
    if min_len < 1:
        raise PoseError("min_len must be >= 1")
    return [t for t in state.all_tracks() if len(t) >= min_len]
