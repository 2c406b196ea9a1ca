"""Frame-to-frame identity association over detected poses.

A track is its history, a dict of frame index -> PersonInstance, and its id
is its index in ``TrackerState.tracks``. Tracks extend by OKS similarity
between each new detection and a propagated copy of the track's last
instance. Matching runs the Hungarian solver by default (greedy available
for comparison); a track may sit out up to ``lookback`` frames, with the
propagator bridging the gap, before ``TrackerState.step`` retires it.
Optical flow is out of scope: a propagator, called as
``prop(history, gap)``, is named by its key in ``PROPAGATORS``, ``identity``
or ``velocity`` (``constant_velocity``), and the matcher by its key in
``MATCHERS``. Each frame with detections propagates every live track exactly
once and scores all track x detection pairs with one stacked ``oks`` call.

``TrackerState.step`` is the only writer of histories: it checks frame order
and only appends, so a history's keys increase in insertion order. Its last
frames are read from the end (``reversed(history)``), and a step costs the
same however long the sequence has run.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .assignment import solve_greedy, solve_hungarian
from .errors import PoseError
from .instances import PersonInstance
from .poseio import check_frame_order
from .suppression import OksConstants, oks


def identity(history: dict, gap: int) -> PersonInstance:
    """Predict no motion: the track's last instance as-is."""
    return history[next(reversed(history))]


def constant_velocity(history: dict, gap: int) -> PersonInstance:
    """Extrapolate keypoints and box linearly from the last two observations.

    Falls back to identity with fewer than two observations; gap 0 is always
    the identity.
    """
    if gap == 0 or len(history) < 2:
        return identity(history, gap)
    t1, t0 = itertools.islice(reversed(history), 2)
    cur, prev = history[t1], history[t0]
    dt = t1 - t0
    vel_kp = (cur.coords - prev.coords) / dt
    vel_box = (cur.box[:2] - prev.box[:2]) / dt
    box = cur.box.copy()
    box[:2] = box[:2] + vel_box * gap
    return cur.replace(box=box, coords=cur.coords + vel_kp * gap)


PROPAGATORS = {"identity": identity, "velocity": constant_velocity}
MATCHERS = {"hungarian": solve_hungarian, "greedy": solve_greedy}


def similarity(tracks, candidates, frame: int, prop, consts: OksConstants):
    """OKS of each candidate to each propagated track.

    tracks is a sequence of histories (frame index -> PersonInstance, never
    empty) and candidates one of PersonInstances; the result is the
    (len(tracks), len(candidates)) matrix. Every track is propagated once,
    by ``prop(history, gap)``, and all of them go through one stacked
    ``oks`` call. Nothing is propagated when there is no track or no
    candidate. Lookback is not applied here: ``TrackerState.step`` retires
    old tracks before it calls this.
    """
    if not all(tracks):
        raise PoseError("track history must be non-empty")
    gaps = [frame - next(reversed(history)) for history in tracks]
    if any(gap < 1 for gap in gaps):
        raise PoseError("similarity requires frame > a track's last frame")
    if not (tracks and candidates):
        return np.zeros((len(tracks), len(candidates)))
    return oks([prop(h, gap) for h, gap in zip(tracks, gaps)], candidates, consts)


@dataclass
class TrackerState:
    """Single-writer association state for one sequence.

    ``matcher`` and ``propagator`` are keys of ``MATCHERS`` and
    ``PROPAGATORS``; ``tracks`` holds every track's history, indexed by id,
    and ``live`` the ids, in order, that ``step`` has not yet retired.
    """

    consts: OksConstants
    sim_threshold: float
    lookback: int
    matcher: str
    propagator: str
    tracks: list = field(default_factory=list)
    live: list = field(default_factory=list, init=False)
    last_frame: int = None

    def __post_init__(self):
        if not 0 <= self.sim_threshold <= 1:
            raise PoseError("similarity threshold must be in [0, 1]")
        if self.matcher not in MATCHERS:
            raise PoseError(f"unknown matcher {self.matcher!r}")
        if self.propagator not in PROPAGATORS:
            raise PoseError(f"unknown propagator {self.propagator!r}")
        if self.lookback < 1:
            raise PoseError("lookback must be >= 1")

    @property
    def next_id(self) -> int:
        return len(self.tracks)

    def step(self, frame: int, detections) -> list:
        """Associate one frame of detections; returns their track ids in
        detection order."""
        if self.last_frame is not None:
            check_frame_order((self.last_frame, frame))
        self.last_frame = frame

        self.live = [tid for tid in self.live
                     if frame - next(reversed(self.tracks[tid])) <= self.lookback]
        sims = similarity([self.tracks[tid] for tid in self.live], detections, frame,
                          PROPAGATORS[self.propagator], self.consts)

        matched_dets = {}
        if sims.size:
            assign = MATCHERS[self.matcher](1.0 - sims)
            for i, j in assign.items():
                if sims[i, j] >= self.sim_threshold:
                    matched_dets[j] = self.live[i]

        ids = []
        for j, det in enumerate(detections):
            tid = matched_dets.get(j, self.next_id)
            if tid == self.next_id:
                self.live.append(tid)
                self.tracks.append({})
            self.tracks[tid][frame] = det.replace(track_id=tid)
            ids.append(tid)
        return ids

    def all_tracks(self) -> list:
        return self.tracks


def finalize(state: TrackerState, min_len: int) -> list:
    """The ids of all tracks with at least ``min_len`` stored frames, in
    order."""
    if min_len < 1:
        raise PoseError("min_len must be >= 1")
    return [tid for tid, history in enumerate(state.all_tracks()) if len(history) >= min_len]
