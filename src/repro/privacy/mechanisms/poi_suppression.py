"""POI suppression: erase records near detected stops.

A defender-side use of the POI extractor: find the dwell episodes in each
trajectory and delete every record within ``erase_radius_m`` of a stay
centre (plus the stay's records themselves).  The classic alternative to
speed smoothing — it removes the sensitive *places* but leaves the
movement between them at full fidelity, so timing analyses survive while
coverage near POIs (where people actually are) is lost.

Included both as a registry candidate and as the comparison point that
motivates the paper's preference for smoothing: suppression visibly
punches holes around exactly the places that make data valuable
(workplaces, venues), whereas smoothing keeps the path through them.
"""

from __future__ import annotations

import numpy as np

from repro.errors import MechanismError
from repro.geo.distance import haversine_m
from repro.geo.trajectory import Trajectory
from repro.privacy.mechanisms.base import LocationPrivacyMechanism
from repro.privacy.pois import PoiExtractor, PoiExtractorConfig


class PoiSuppressionMechanism(LocationPrivacyMechanism):
    """Deletes every record close to a detected stay point.

    Parameters
    ----------
    erase_radius_m:
        Records within this distance of any stay-point centre are
        removed.  Should exceed the extractor's roam gate, otherwise the
        edges of a dwell survive and re-cluster.
    extractor_config:
        Thresholds of the defender's own stay-point detection; defaults
        match the attack's defaults (defend against what will be tried).
    """

    name = "poi-suppression"
    per_day = True

    def __init__(
        self,
        erase_radius_m: float = 400.0,
        extractor_config: PoiExtractorConfig | None = None,
    ):
        if not (erase_radius_m > 0):
            raise MechanismError(f"erase radius must be positive: {erase_radius_m}")
        self.erase_radius_m = erase_radius_m
        self._extractor = PoiExtractor(extractor_config)

    def protect_trajectory(
        self, trajectory: Trajectory, rng: np.random.Generator
    ) -> Trajectory | None:
        stays = self._extractor.stay_points(trajectory)
        if not stays:
            return trajectory
        centres = [stay.center for stay in stays]
        kept = tuple(
            record
            for record in trajectory.records
            if all(
                haversine_m(record.point, centre) > self.erase_radius_m
                for centre in centres
            )
        )
        if len(kept) < 2:
            return None
        return Trajectory(user=trajectory.user, records=kept)
