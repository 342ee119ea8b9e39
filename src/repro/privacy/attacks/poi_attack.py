"""POI retrieval attack: extract stops from a (protected) dataset."""

from __future__ import annotations

from repro.geo.filtering import rolling_median
from repro.geo.trajectory import Trajectory
from repro.mobility.dataset import MobilityDataset
from repro.privacy.pois import Poi, PoiExtractor, PoiExtractorConfig
from repro.units import DAY


class PoiAttack:
    """Runs POI extraction against every user of a published dataset.

    The adversary is assumed to know the standard stay-point pipeline and
    its usual thresholds.  Two standard refinements make the attack as
    strong as the literature's:

    - **denoising**: a rolling-median filter (``denoise_window`` fixes,
      odd, 1 = off) applied before extraction.  Per-fix perturbation such
      as geo-indistinguishability is independent across fixes, so the
      median collapses the noise cloud back onto the true stop — the core
      of the paper's "still re-identify >= 60 % of POIs" observation;
    - **top-k reporting** (``max_pois``): a real attacker reports a
      plausible number of POIs per user, not hundreds; candidates are
      ranked by accumulated dwell.

    Stay points are pooled across the days of each trace before
    clustering so recurring places accumulate evidence.
    """

    def __init__(
        self,
        config: PoiExtractorConfig | None = None,
        denoise_window: int = 1,
        max_pois: int | None = 10,
    ):
        self.extractor = PoiExtractor(config)
        self.denoise_window = denoise_window
        self.max_pois = max_pois

    def run_trajectory(self, trajectory: Trajectory) -> list[Poi]:
        """Candidate POIs of a single multi-day trajectory."""
        days = trajectory.day_columns(DAY)
        if self.denoise_window > 1:
            days = [rolling_median(day, self.denoise_window) for day in days]
        pois = self.extractor.extract_many(days)
        if self.max_pois is not None:
            pois = pois[: self.max_pois]
        return pois

    def run(self, dataset: MobilityDataset) -> dict[str, list[Poi]]:
        """Candidate POIs per (pseudonymous) user id."""
        return {
            trajectory.user: self.run_trajectory(trajectory)
            for trajectory in dataset
        }
