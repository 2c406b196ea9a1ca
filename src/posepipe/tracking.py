"""Frame-to-frame identity association over detected poses.

A track is its history, a dict of frame index -> PersonInstance, and its id
is its index in ``TrackerState.tracks``. Each frame's detections come in as
one ``InstanceStack``; their PersonInstances are built once, with their
track ids, when ``TrackerState.step`` stores them. Tracks extend by OKS
similarity between each new detection and a propagated copy of the track's
last instance. Matching runs the Hungarian solver by default (greedy
available for comparison); a track may sit out up to ``lookback`` frames,
with the propagator bridging the gap, before ``TrackerState.step`` retires
it. Optical flow is out of scope: a propagator, called as
``prop(histories, gaps)``, predicts every live track at once and returns
their InstanceStack; it is named by its key in ``PROPAGATORS``, ``identity``
or ``velocity`` (``constant_velocity``), and the matcher by its key in
``MATCHERS``. Each frame with detections propagates the live tracks in one
call and scores all track x detection pairs with one stacked ``oks`` call.

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
from .instances import InstanceStack
from .poseio import check_frame_order
from .suppression import OksConstants, oks


def identity(histories, gaps) -> InstanceStack:
    """Predict no motion: each track's last instance as-is."""
    last = [history[next(reversed(history))] for history in histories]
    return InstanceStack.of(last[0].joint_set, last)


def constant_velocity(histories, gaps) -> InstanceStack:
    """Extrapolate keypoints and box linearly from each track's last two
    observations, in one pass over the tracks that have two; the others, and
    every track at gap 0, keep their last instance. The instance rules run
    once over the propagated box and coordinates.
    """
    now = identity(histories, gaps)
    frames = [tuple(itertools.islice(reversed(history), 2)) for history in histories]
    moving = [i for i, (t, gap) in enumerate(zip(frames, gaps)) if len(t) == 2 and gap]
    if not moving:
        return now
    prev = [histories[i][frames[i][1]] for i in moving]
    dt = np.array([frames[i][0] - frames[i][1] for i in moving], dtype=np.float64)[:, None]
    gap = np.array(gaps, dtype=np.float64)[moving][:, None]
    coords, box = now.coords.copy(), now.box.copy()
    cur_kp, cur_box = now.coords[moving], now.box[moving, :2]
    # far-apart values overflow to inf: an unannotated joint may, and a
    # box or an annotated joint then fails its rule
    with np.errstate(over="ignore"):
        vel_kp = (cur_kp - np.array([p.coords for p in prev])) / dt[:, :, None]
        vel_box = (cur_box - np.array([p.box[:2] for p in prev])) / dt
        coords[moving] = cur_kp + vel_kp * gap[:, :, None]
        box[moving, :2] = cur_box + vel_box * gap
    return now.replace(box=box, coords=coords)


PROPAGATORS = {"identity": identity, "velocity": constant_velocity}
MATCHERS = {"hungarian": solve_hungarian, "greedy": solve_greedy}


def similarity(tracks, candidates, frame: int, prop, consts: OksConstants):
    """OKS of each candidate to each propagated track.

    tracks is a sequence of histories (frame index -> PersonInstance, never
    empty) and candidates an InstanceStack; the result is the
    (len(tracks), len(candidates)) matrix. Every track is propagated by one
    ``prop(tracks, gaps)`` call, and all of them go through one stacked
    ``oks`` call. Nothing is propagated when there is no track or no
    candidate. Lookback is not applied here: ``TrackerState.step`` retires
    old tracks before it calls this.
    """
    if not all(tracks):
        raise PoseError("track history must be non-empty")
    gaps = [frame - next(reversed(history)) for history in tracks]
    if any(gap < 1 for gap in gaps):
        raise PoseError("similarity requires frame > a track's last frame")
    if not (tracks and len(candidates)):
        return np.zeros((len(tracks), len(candidates)))
    return oks(prop(tracks, gaps), candidates, consts)


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
        """Associate one frame of detections, an InstanceStack; returns their
        track ids in detection order."""
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
        for j in range(len(detections)):
            tid = matched_dets.get(j, self.next_id)
            if tid == self.next_id:
                self.live.append(tid)
                self.tracks.append({})
            ids.append(tid)
        for tid, p in zip(ids, detections.replace(track_id=ids).instances()):
            self.tracks[tid][frame] = p
        return ids

    def all_tracks(self) -> list:
        return self.tracks


def finalize(state: TrackerState, min_len: int) -> list:
    """The ids of all tracks with at least ``min_len`` stored frames, in
    order."""
    if min_len < 1:
        raise PoseError("min_len must be >= 1")
    return [tid for tid, history in enumerate(state.all_tracks()) if len(history) >= min_len]
