"""POI-anchored synthetic mobility generator.

Generates a population of users, each with a home / work / leisure profile
drawn from a shared :class:`~repro.mobility.city.City`, then simulates day
after day of stay-and-commute movement sampled at a fixed GPS period with
configurable fix noise and dropout.  The output is a
:class:`~repro.mobility.dataset.MobilityDataset`, built as columns with no
``Record`` or ``GeoPoint`` per fix, plus exact
:class:`~repro.mobility.ground_truth.GroundTruth`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import GeoError
from repro.geo.point import GeoPoint
from repro.geo.projection import LocalProjection
from repro.geo.trajectory import Trajectory
from repro.mobility.city import City, CityConfig
from repro.mobility.dataset import MobilityDataset
from repro.mobility.ground_truth import GroundTruth, PoiVisit, UserTruth
from repro.mobility.schedule import DailySchedule, UserProfile
from repro.units import DAY


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs of the synthetic workload.

    The defaults produce a dataset comparable in structure to two weeks of
    a small deployment: enough days for POI profiles to stabilise, 60 s GPS
    period as in typical crowd-sensing campaigns.
    """

    n_users: int = 20
    n_days: int = 7
    sampling_period: float = 60.0
    gps_noise_m: float = 10.0
    #: Probability that any individual fix is lost (radio off, indoors...).
    dropout: float = 0.03
    leisure_per_user: int = 3
    city: CityConfig = field(default_factory=CityConfig)

    def __post_init__(self) -> None:
        if self.n_users < 1:
            raise GeoError("population must have at least one user")
        if self.n_days < 1:
            raise GeoError("need at least one day of data")
        if not (self.sampling_period > 0):
            raise GeoError(f"sampling period must be positive: {self.sampling_period}")
        if not (self.gps_noise_m >= 0):
            raise GeoError(f"GPS noise must be non-negative: {self.gps_noise_m}")
        if not (0.0 <= self.dropout < 1.0):
            raise GeoError(f"dropout must be in [0, 1): {self.dropout}")


@dataclass
class PopulationData:
    """Everything the generator produces for one population."""

    dataset: MobilityDataset
    truth: GroundTruth
    profiles: dict[str, UserProfile]
    city: City


#: A movement plan segment in local metres: the user moves linearly from
#: (x0, y0) at t0 to (x1, y1) at t1.  Stays are segments with equal
#: endpoints.
_Segment = tuple[float, float, float, float, float, float]


class MobilityGenerator:
    """Deterministic (seeded) generator of synthetic mobility datasets."""

    def __init__(self, config: GeneratorConfig | None = None):
        self.config = config or GeneratorConfig()

    def generate(self, seed: int = 0) -> PopulationData:
        """Generate a full population; identical seeds give identical data."""
        rng = np.random.default_rng(seed)
        city = City.generate(self.config.city, rng)
        profiles = self._draw_profiles(city, rng)
        truth = GroundTruth(
            users={
                user: UserTruth(user=user, home=profile.home, work=profile.work)
                for user, profile in profiles.items()
            }
        )
        projection = LocalProjection(city.config.center)
        trajectories = []
        for user, profile in profiles.items():
            days = []
            for day in range(self.config.n_days):
                schedule = profile.sample_day(rng)
                self._record_truth(truth, user, schedule, day)
                segments = self._plan_segments(schedule, profile, projection)
                days.append(self._sample_day(segments, day, projection, rng))
            fixes = np.concatenate(days, axis=1)
            trajectories.append(Trajectory.from_unsorted_columns(user, *fixes))
        dataset = MobilityDataset(trajectories)
        return PopulationData(dataset=dataset, truth=truth, profiles=profiles, city=city)

    # ------------------------------------------------------------------
    # Profile sampling
    # ------------------------------------------------------------------

    def _draw_profiles(
        self, city: City, rng: np.random.Generator
    ) -> dict[str, UserProfile]:
        profiles: dict[str, UserProfile] = {}
        used_pairs: set[tuple[GeoPoint, GeoPoint]] = set()
        for index in range(self.config.n_users):
            # Distinct (home, work) pairs make users separable, which is
            # the property the re-identification attack exploits.
            for _ in range(100):
                home = city.residential[int(rng.integers(len(city.residential)))]
                work = city.workplaces[int(rng.integers(len(city.workplaces)))]
                if (home, work) not in used_pairs and home != work:
                    used_pairs.add((home, work))
                    break
            k = min(self.config.leisure_per_user, len(city.leisure))
            venues = tuple(
                city.leisure[i]
                for i in rng.choice(len(city.leisure), size=k, replace=False)
            )
            user = f"user-{index:04d}"
            profiles[user] = UserProfile(
                user=user,
                home=home,
                work=work,
                leisure=venues,
                work_start_mean=float(rng.uniform(8.0, 10.0)) * 3600.0,
                work_duration_mean=float(rng.uniform(7.0, 9.0)) * 3600.0,
                leisure_probability=float(rng.uniform(0.25, 0.6)),
                home_day_probability=float(rng.uniform(0.05, 0.2)),
                commute_speed=float(rng.uniform(6.0, 14.0)),
            )
        return profiles

    # ------------------------------------------------------------------
    # Day planning
    # ------------------------------------------------------------------

    @staticmethod
    def _record_truth(
        truth: GroundTruth, user: str, schedule: DailySchedule, day: int
    ) -> None:
        base = day * DAY
        for stay in schedule.stays:
            truth.add_visit(
                user,
                PoiVisit(
                    place=stay.place,
                    start=base + stay.start,
                    end=base + stay.end,
                    label=stay.label,
                ),
            )

    @staticmethod
    def _plan_segments(
        schedule: DailySchedule, profile: UserProfile, projection: LocalProjection
    ) -> list[_Segment]:
        """Compile a day schedule into a continuous piecewise-linear plan.

        Commutes depart as late as possible at the profile's commute speed,
        so the user lingers at the origin anchor (extending the stop — the
        realistic behaviour) rather than crawling between places.
        """
        segments: list[_Segment] = []
        stays = schedule.stays
        for index, stay in enumerate(stays):
            x, y = projection.to_xy(stay.place)
            segments.append((stay.start, stay.end, x, y, x, y))
            if index + 1 >= len(stays):
                break
            nxt = stays[index + 1]
            nx, ny = projection.to_xy(nxt.place)
            gap = nxt.start - stay.end
            distance = float(np.hypot(nx - x, ny - y))
            travel = distance / profile.commute_speed if distance > 0 else 0.0
            if travel >= gap or gap <= 0:
                # Commute fills (or overflows) the gap: move for the whole
                # gap; arrival position still reaches the next anchor.
                segments.append((stay.end, nxt.start, x, y, nx, ny))
            else:
                depart = nxt.start - travel
                segments.append((stay.end, depart, x, y, x, y))
                segments.append((depart, nxt.start, x, y, nx, ny))
        return segments

    # ------------------------------------------------------------------
    # GPS sampling
    # ------------------------------------------------------------------

    def _sample_day(
        self,
        segments: list[_Segment],
        day: int,
        projection: LocalProjection,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """One planned day's GPS fixes, noisy and with dropout, as ``(time, lat, lon)`` rows."""
        period = self.config.sampling_period
        ticks = np.arange(0.0, DAY, period)
        # Small per-fix phase jitter keeps ticks strictly increasing while
        # avoiding aliasing artefacts across users.
        ticks = ticks + rng.uniform(0.0, 0.2 * period, size=ticks.shape)

        xs = np.full_like(ticks, np.nan)
        ys = np.full_like(ticks, np.nan)
        for t0, t1, x0, y0, x1, y1 in segments:
            if t1 <= t0:
                continue
            mask = (ticks >= t0) & (ticks < t1)
            if not mask.any():
                continue
            fraction = (ticks[mask] - t0) / (t1 - t0)
            xs[mask] = x0 + (x1 - x0) * fraction
            ys[mask] = y0 + (y1 - y0) * fraction
        valid = ~np.isnan(xs)
        if self.config.dropout > 0:
            valid &= rng.uniform(size=ticks.shape) >= self.config.dropout

        noise = self.config.gps_noise_m
        xs = xs + rng.normal(0.0, noise, size=ticks.shape)
        ys = ys + rng.normal(0.0, noise, size=ticks.shape)

        lat, lon = projection.to_point_columns(xs[valid], ys[valid])
        return np.stack([day * DAY + ticks[valid], lat, lon])
