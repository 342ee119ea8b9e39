"""Speed smoothing: the paper's novel anonymization strategy.

Section 3 of the paper: *"we use an algorithm that smoothes speed along a
trajectory (typically one day of data) to guarantee that speed is
constant. This still allows to analyze the trajectory of a user but
prevents to find out places where he stopped during his day."*

The algorithm (later published as *Promesse*, Primault et al. 2015) has
three steps per daily trajectory:

1. **Spatial resampling** — emit a point each time the user has moved
   ``epsilon_m`` metres (chord distance) away from the last emitted
   point, discarding the original fix times.  A dwell episode emits *no*
   points at all: GPS jitter at a stop accumulates curvilinear length but
   never strays ``epsilon_m`` from the last emitted point.
2. **Edge trimming** — drop the first and last emitted points, hiding the
   exact start/end locations (usually home).
3. **Uniform re-timestamping** — assign timestamps linearly between the
   day's original start and end times, which makes speed exactly constant
   along the published path.

The published trace keeps the *shape* of the day's movement (so flows and
crowded places remain measurable — experiments E4/E5) while destroying
both the spatial density and the time-density signatures every stay-point
detector relies on (E3).

The constructor's ``resampling`` switch also offers the naive
*curvilinear* variant (uniform distance along the noisy path) as an
ablation: it looks equivalent on paper but leaks stops, because fix noise
turns an 8-hour dwell into kilometres of path length and therefore into a
dense cluster of resampled points.  Experiment ``bench_poi_ablation``
quantifies the difference.
"""

from __future__ import annotations

import numpy as np

from repro.errors import MechanismError
from repro.geo.point import Record
from repro.geo.trajectory import Trajectory
from repro.privacy.mechanisms.base import LocationPrivacyMechanism

_RESAMPLINGS = ("chord", "curvilinear")


class SpeedSmoothingMechanism(LocationPrivacyMechanism):
    """Constant-speed rewriting of each daily trajectory.

    Parameters
    ----------
    epsilon_m:
        Resampling step in metres.  Larger steps hide stops harder (and
        trim more of the edges) at the cost of spatial resolution.  100 m
        is the paper-era default.
    resampling:
        ``"chord"`` (the robust default, see module docstring) or
        ``"curvilinear"`` (ablation variant).
    min_points:
        Daily traces yielding fewer resampled points than this are
        *suppressed*: the user barely moved, and a constant-speed rewrite
        could only paint a blob on their home.
    """

    name = "speed-smoothing"
    per_day = True

    def __init__(
        self,
        epsilon_m: float = 100.0,
        resampling: str = "chord",
        min_points: int = 4,
    ):
        if not (epsilon_m > 0):
            raise MechanismError(f"resampling step must be positive: {epsilon_m}")
        if resampling not in _RESAMPLINGS:
            raise MechanismError(
                f"unknown resampling {resampling!r}; expected one of {_RESAMPLINGS}"
            )
        if min_points < 4:
            raise MechanismError(
                f"min_points must be >= 4 so trimming leaves a publishable "
                f"path (got {min_points})"
            )
        self.epsilon_m = epsilon_m
        self.resampling = resampling
        self.min_points = min_points

    def protect_trajectory(
        self, trajectory: Trajectory, rng: np.random.Generator
    ) -> Trajectory | None:
        if trajectory.duration <= 0:
            return None
        if self.resampling == "chord":
            resampled = trajectory.resample_chord(self.epsilon_m)
        else:
            resampled = trajectory.resample_uniform_distance(self.epsilon_m)
        if len(resampled) < self.min_points:
            return None

        # Trim both ends to hide the exact departure/arrival places.
        trimmed = resampled[1:-1]
        times = np.linspace(trajectory.start_time, trajectory.end_time, num=len(trimmed))
        records = tuple(
            Record(point=point, time=float(time))
            for point, time in zip(trimmed, times)
        )
        return Trajectory(user=trajectory.user, records=records)
