"""POI-profile re-identification (linkage) attack.

Background knowledge: raw traces of the user population from an earlier
period (or any side channel yielding per-user POI profiles).  Target: a
pseudonymized, protected dataset from a later period.  The attack extracts
a POI profile from each pseudonymous trace and links it to the known user
whose profile matches best.  Krumm (Pervasive'07) and the paper's
reference [3] showed this succeeds against naive pseudonymization because
home/work pairs are near-unique.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.mobility.dataset import MobilityDataset
from repro.geo.distance import haversine_m
from repro.privacy.attacks.poi_attack import PoiAttack
from repro.privacy.pois import Poi, PoiExtractorConfig


@dataclass(frozen=True)
class LinkageResult:
    """Outcome of linking one pseudonym."""

    pseudonym: str
    guessed_user: str | None
    score_m: float


class ReidentificationAttack:
    """Links pseudonymous protected traces to known user profiles.

    Parameters
    ----------
    config:
        POI-extraction thresholds the adversary uses on both sides.
    profile_size:
        Number of top-dwell POIs kept per profile (home/work dominate, so
        small profiles already identify most users).
    max_match_distance_m:
        A pseudonym is linked only when its best profile distance is below
        this gate; otherwise the attack abstains (``guessed_user=None``).
    denoise_window:
        Rolling-median window forwarded to :class:`PoiAttack`; essential
        against per-fix perturbation mechanisms.
    """

    def __init__(
        self,
        config: PoiExtractorConfig | None = None,
        profile_size: int = 4,
        max_match_distance_m: float = 500.0,
        denoise_window: int = 1,
    ):
        self._attack = PoiAttack(config, denoise_window=denoise_window)
        self.profile_size = profile_size
        self.max_match_distance_m = max_match_distance_m
        #: ``None`` until fitted; an empty dict is a fitted attacker whose
        #: background knowledge yielded no profile at all.
        self._profiles: dict[str, list[Poi]] | None = None

    # ------------------------------------------------------------------
    # Phase 1: background knowledge
    # ------------------------------------------------------------------

    def fit(self, background: MobilityDataset) -> "ReidentificationAttack":
        """Build per-user POI profiles from the attacker's side knowledge."""
        return self.fit_profiles(self._attack.run(background))

    def fit_profiles(self, pois: Mapping[str, list[Poi]]) -> "ReidentificationAttack":
        """:meth:`fit` from per-user POIs that were already extracted.

        ``pois`` must be what this attacker's own :class:`PoiAttack` finds
        (same thresholds, same denoising) — e.g. the sensitive places an
        audit computed once for the whole registry.
        """
        self._profiles = {
            user: found[: self.profile_size] for user, found in pois.items() if found
        }
        return self

    @property
    def known_users(self) -> list[str]:
        return list(self._profiles or ())

    # ------------------------------------------------------------------
    # Phase 2: linkage
    # ------------------------------------------------------------------

    def _profile_distance(self, observed: list[Poi], profile: list[Poi]) -> float:
        """Mean nearest-neighbour distance from observed POIs to a profile.

        Dwell-weighted so that an attacker trusts long stops (home, work)
        more than incidental ones.
        """
        total_weight = 0.0
        total = 0.0
        for poi in observed:
            nearest = min(haversine_m(poi.center, p.center) for p in profile)
            total += poi.total_dwell * nearest
            total_weight += poi.total_dwell
        return total / total_weight if total_weight > 0 else float("inf")

    def _fitted_profiles(self) -> dict[str, list[Poi]]:
        if self._profiles is None:
            raise RuntimeError("call fit() with background knowledge before link()")
        return self._profiles

    def link(self, protected: MobilityDataset) -> dict[str, LinkageResult]:
        """Best-profile linkage for every pseudonym of ``protected``."""
        self._fitted_profiles()  # fail before the extraction, not after it
        return self.link_profiles(self._attack.run(protected))

    def link_profiles(
        self, observed_pois: Mapping[str, list[Poi]]
    ) -> dict[str, LinkageResult]:
        """:meth:`link` from per-pseudonym POIs that were already extracted.

        A pseudonym with no POI, and every pseudonym when the background
        yielded no profile, is an abstention (``guessed_user=None``).
        """
        profiles = self._fitted_profiles()
        results: dict[str, LinkageResult] = {}
        for pseudonym, observed in observed_pois.items():
            observed = observed[: self.profile_size]
            if not observed:
                results[pseudonym] = LinkageResult(pseudonym, None, float("inf"))
                continue
            best_user: str | None = None
            best_score = float("inf")
            for user, profile in profiles.items():
                score = self._profile_distance(observed, profile)
                if score < best_score:
                    best_user = user
                    best_score = score
            if best_score > self.max_match_distance_m:
                best_user = None
            results[pseudonym] = LinkageResult(pseudonym, best_user, best_score)
        return results
