"""Secure-aggregation orchestration: the crypto protocols as a platform service.

The :mod:`repro.crypto` substrate ships the *protocols* — a Paillier
cryptosystem with homomorphic sums, pairwise additive masking, and a
Shamir-backed dropout-resilient masking variant.  This module turns them
into the platform's privacy tier: a :class:`SecureAggregationSession`
runs one aggregation round over a task's enrolled participants so that

- every participant contributes a *vector* of fixed-point-encoded
  partial aggregates (record counts, value sums, histogram bins...);
- the aggregating middle parties (Hives, the federation merger) only
  ever see ciphertexts or uniformly masked integers — component sums
  come out, individual contributions never do;
- the protocol is chosen **per participant** from its device profile
  (battery level, public-key capability) through a
  :class:`SecureAggregationPolicy`, echoing adapt-to-endpoint-capability
  middleware design: strong devices run Paillier, weak ones run the
  cheap masking protocol, and the two cohorts' decrypted/unmasked sums
  fold into one result;
- participants that drop mid-session (an explicit ``down`` set or a
  :class:`~repro.simulation.FaultInjector` outage) are survived: the
  masking cohort recovers dangling masks through Shamir shares
  (:mod:`repro.crypto.resilient_masking`), the Paillier cohort simply
  contributes nothing, and the session reports exactly who dropped so
  callers can compare against the survivors' plaintext aggregate.

The session is deliberately dependency-light (crypto + errors only);
the data-plane integrations live where the data lives —
:meth:`repro.federation.query.FederatedDataset.secure_aggregate` for
the batch stores, :meth:`repro.federation.streams.FederatedStreamMerger.
secure_totals` for live windows, and :meth:`repro.apisense.hive.Hive.
secure_aggregate` for a single deployment.
"""

from __future__ import annotations

import math
import random
import time as _time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from repro import obs as _obs
from repro.obs.instruments import SecureAggInstruments
from repro.crypto import (
    DeviceContributor,
    FixedPointCodec,
    MaskedAggregation,
    MaskingDealer,
    MaskingParticipant,
    ObliviousAggregator,
    QueryCoordinator,
    ResilientAggregation,
)
from repro.errors import ProtocolError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.crypto.paillier import PaillierCiphertext
    from repro.crypto.resilient_masking import ResilientParticipant
    from repro.simulation import FaultInjector

#: The concrete wire protocols a participant can run.
PROTOCOLS = ("paillier", "masking")


@dataclass(frozen=True)
class SecureAggregationPolicy:
    """Deployment-wide knobs of the privacy tier.

    ``protocol`` forces one protocol for everyone; ``"auto"`` picks per
    participant: devices that cannot run public-key crypto, or whose
    battery is below ``paillier_battery_floor``, run the masking
    protocol (hash arithmetic only), everyone else runs Paillier.
    ``resilient`` selects the Shamir-backed masking variant that
    survives dropouts at the cost of an O(n²) pairwise dealing step;
    non-resilient masking is the cheap benchmark baseline and aborts if
    any cohort member drops.
    """

    protocol: str = "auto"
    paillier_battery_floor: float = 0.3
    key_bits: int = 256
    decimals: int = 3
    resilient: bool = True
    #: Shamir threshold as a fraction of the masking cohort (clamped to
    #: [2, cohort size]); recovery needs that many *surviving* members.
    dropout_threshold: float = 0.6

    def __post_init__(self) -> None:
        if self.protocol not in ("auto", *PROTOCOLS):
            raise ProtocolError(
                f"unknown protocol {self.protocol!r}; one of ('auto', {PROTOCOLS})"
            )
        if not (0.0 < self.dropout_threshold <= 1.0):
            raise ProtocolError(
                f"dropout threshold must be in (0, 1]: {self.dropout_threshold}"
            )

    def select_protocol(self, profile: "ParticipantProfile") -> str:
        """The protocol one participant runs under this policy."""
        if self.protocol != "auto":
            return self.protocol
        if not profile.supports_paillier:
            return "masking"
        if (
            profile.battery is not None
            and profile.battery < self.paillier_battery_floor
        ):
            return "masking"
        return "paillier"


@dataclass(frozen=True)
class ParticipantProfile:
    """What protocol selection knows about one enrolled participant.

    ``battery`` is the device's charge in [0, 1] (``None`` = unknown,
    treated as strong); ``member`` optionally records which federation
    Hive homes the participant so the Paillier fold can run per member.
    """

    participant_id: str
    battery: float | None = None
    supports_paillier: bool = True
    member: str | None = None


@dataclass(frozen=True)
class SecureAggregate:
    """The decrypted/unmasked result of one aggregation session."""

    task: str
    components: tuple[str, ...]
    #: Component label -> securely computed sum over the contributors.
    sums: Mapping[str, float]
    contributors: int
    dropped: tuple[str, ...]
    #: Participant id -> protocol it was enrolled under.
    protocol_of: Mapping[str, str]

    @property
    def protocol_split(self) -> dict[str, int]:
        """Live contributors per protocol (dropped excluded)."""
        down = set(self.dropped)
        split = {name: 0 for name in PROTOCOLS}
        for pid, protocol in self.protocol_of.items():
            if pid not in down:
                split[protocol] += 1
        return split

    def sum(self, component: str) -> float:
        if component not in self.sums:
            raise ProtocolError(
                f"unknown component {component!r}; session computed {self.components}"
            )
        return self.sums[component]

    def mean(self, component: str, count_component: str) -> float:
        """``sum(component) / sum(count_component)`` (0.0 on empty)."""
        count = self.sum(count_component)
        return self.sum(component) / count if count else 0.0


class SecureAggregationSession:
    """One aggregation round over a task's enrolled participants.

    Lifecycle: construct with the participant profiles (cohorts are
    fixed here), :meth:`setup` performs the enrolment-time work (key
    generation, pairwise mask dealing + Shamir sharing), then one
    :meth:`run` collects every live participant's contribution vector
    and returns the component sums.  Between ``setup`` and ``run`` the
    simulation may take devices down — a :class:`~repro.simulation.
    FaultInjector` passed at construction (components named
    ``{fault_prefix}{participant_id}``) or an explicit ``down`` set
    marks them, and the session still reconstructs the survivors' sums.
    """

    def __init__(
        self,
        task: str,
        participants: Iterable[ParticipantProfile],
        *,
        components: Sequence[str] = ("value",),
        policy: SecureAggregationPolicy | None = None,
        rng: random.Random | None = None,
        faults: "FaultInjector | None" = None,
        fault_prefix: str = "device:",
        obs: _obs.Obs | None = None,
    ):
        self.task = task
        self.policy = policy or SecureAggregationPolicy()
        self.components = tuple(components)
        if not self.components:
            raise ProtocolError("session needs at least one component to aggregate")
        if len(set(self.components)) != len(self.components):
            raise ProtocolError(f"duplicate component labels: {self.components}")
        self._rng = rng or random.SystemRandom()
        self._faults = faults
        self._fault_prefix = fault_prefix
        self.profiles: dict[str, ParticipantProfile] = {}
        for profile in participants:
            if profile.participant_id in self.profiles:
                raise ProtocolError(
                    f"participant {profile.participant_id!r} enrolled twice"
                )
            self.profiles[profile.participant_id] = profile
        if not self.profiles:
            raise ProtocolError("session needs at least one participant")

        self.protocol_of: dict[str, str] = {
            pid: self.policy.select_protocol(profile)
            for pid, profile in self.profiles.items()
        }
        masking = sorted(p for p, proto in self.protocol_of.items() if proto == "masking")
        if len(masking) == 1:
            if self.policy.protocol == "masking":
                raise ProtocolError("masking needs at least two participants")
            lone = masking[0]
            if not self.profiles[lone].supports_paillier:
                # The capability bit is hard: a device that cannot run
                # public-key crypto has no protocol left to fall back to.
                raise ProtocolError(
                    f"participant {lone!r} cannot run Paillier and is the "
                    "only masking-capable-cohort member; masking needs a "
                    "second participant"
                )
            # A lone battery-weak device cannot pairwise-mask with
            # anyone; battery preference is soft, so it falls back to
            # the public-key protocol.
            self.protocol_of[lone] = "paillier"
        self.masking_cohort = tuple(
            sorted(p for p, proto in self.protocol_of.items() if proto == "masking")
        )
        self.paillier_cohort = tuple(
            sorted(p for p, proto in self.protocol_of.items() if proto == "paillier")
        )
        self._codec = FixedPointCodec(self.policy.decimals)
        self._coordinator: QueryCoordinator | None = None
        self._queries: list = []
        self._masking_participants: "list[ResilientParticipant]" = []
        self._group_seed: bytes | None = None
        self.threshold: int | None = None
        self._setup_done = False
        self._ran = False
        obs = obs or _obs.default()
        self.obs = SecureAggInstruments(obs.registry)
        self._tracer = obs.tracer

    # ------------------------------------------------------------------
    # Enrolment-time work
    # ------------------------------------------------------------------

    def setup(self) -> "SecureAggregationSession":
        """Key generation and mask dealing; idempotent via :meth:`run`."""
        if self._setup_done:
            raise ProtocolError("session already set up")
        timed = self.obs.registry.enabled
        started = _time.perf_counter() if timed else 0.0
        self._setup_phases(timed, started)
        return self

    def _setup_phases(self, timed: bool, started: float) -> None:
        if self.paillier_cohort:
            self._coordinator = QueryCoordinator(self.policy.key_bits, rng=self._rng)
            self._queries = [
                self._coordinator.open_query(
                    f"{self.task}/{index}:{label}", codec=self._codec
                )
                for index, label in enumerate(self.components)
            ]
        if self.masking_cohort:
            n = len(self.masking_cohort)
            if self.policy.resilient:
                self.threshold = min(
                    n, max(2, math.ceil(self.policy.dropout_threshold * n))
                )
                dealer = MaskingDealer(
                    n, self.threshold, rng=self._rng, codec=self._codec
                )
                self._masking_participants = dealer.deal()
            else:
                self._group_seed = self._rng.getrandbits(128).to_bytes(16, "big")
        self._setup_done = True
        if timed:
            self.obs.phase_seconds("setup").observe(_time.perf_counter() - started)

    # ------------------------------------------------------------------
    # Collection round
    # ------------------------------------------------------------------

    def _is_down(self, pid: str, down: frozenset[str] | set[str]) -> bool:
        if pid in down:
            return True
        return self._faults is not None and self._faults.is_down(
            self._fault_prefix + pid
        )

    def run(
        self,
        contributions: Mapping[str, Sequence[float]],
        down: "set[str] | frozenset[str]" = frozenset(),
    ) -> SecureAggregate:
        """Collect one contribution vector per live participant.

        ``contributions`` maps every *enrolled* participant id to its
        component vector (down participants' entries are ignored — in a
        deployment their values never leave the device).  Returns the
        component sums over the survivors.
        """
        if not self._setup_done:
            self.setup()
        if self._ran:
            raise ProtocolError("session already ran; build a new session per round")
        missing = sorted(set(self.profiles) - set(contributions))
        if missing:
            raise ProtocolError(f"missing contributions for {missing}")
        width = len(self.components)
        for pid in self.profiles:
            if len(contributions[pid]) != width:
                raise ProtocolError(
                    f"participant {pid!r} contributed "
                    f"{len(contributions[pid])} components, expected {width}"
                )
        self._ran = True
        dropped = sorted(pid for pid in self.profiles if self._is_down(pid, down))
        down_set = set(dropped)
        sums = [0.0] * width
        timed = self.obs.registry.enabled
        self.obs.dropouts.inc(len(dropped))

        live_paillier = [p for p in self.paillier_cohort if p not in down_set]
        if live_paillier:
            started = _time.perf_counter() if timed else 0.0
            with self._tracer.span(
                "secure_agg.paillier", task=self.task, cohort=len(live_paillier)
            ):
                self._run_paillier(contributions, live_paillier, sums)
            if timed:
                self.obs.phase_seconds("paillier").observe(
                    _time.perf_counter() - started
                )
            self.obs.round_done("paillier")
        if self.masking_cohort:
            started = _time.perf_counter() if timed else 0.0
            with self._tracer.span(
                "secure_agg.masking", task=self.task, cohort=len(self.masking_cohort)
            ):
                self._run_masking(contributions, down_set, sums)
            if timed:
                self.obs.phase_seconds("masking").observe(
                    _time.perf_counter() - started
                )
            self.obs.round_done("masking")

        return SecureAggregate(
            task=self.task,
            components=self.components,
            sums=dict(zip(self.components, sums)),
            contributors=len(self.profiles) - len(dropped),
            dropped=tuple(dropped),
            protocol_of=dict(self.protocol_of),
        )

    def _run_paillier(
        self,
        contributions: Mapping[str, Sequence[float]],
        live: list[str],
        sums: list[float],
    ) -> None:
        """Homomorphic fold: per-member encrypted partials, one decrypt.

        Each federation member aggregates only its own participants'
        ciphertexts; the member partials are themselves combined under
        encryption, so no aggregator anywhere sees an individual value
        — and the coordinator sees only the final totals.
        """
        assert self._coordinator is not None
        contributor = DeviceContributor(self._rng)
        for index, query in enumerate(self._queries):
            # Conservative per-device headroom: the homomorphic sum of
            # every live encoding must stay inside +/- max_plaintext.
            limit = query.public_key.max_plaintext // max(1, len(live))
            by_member: dict[str | None, ObliviousAggregator] = {}
            for pid in live:
                value = contributions[pid][index]
                if abs(self._codec.encode(value)) > limit:
                    raise ProtocolError(
                        f"contribution {value} of {pid!r} exceeds the key's "
                        f"sum headroom for {len(live)} devices; raise "
                        f"key_bits (= {self.policy.key_bits})"
                    )
                member = self.profiles[pid].member
                aggregator = by_member.get(member)
                if aggregator is None:
                    aggregator = by_member[member] = ObliviousAggregator(query)
                aggregator.accept(contributor.contribute_value(query, value))
            total: "PaillierCiphertext | None" = None
            for aggregator in by_member.values():
                partial = aggregator.scalar_result()
                total = partial if total is None else total + partial
            assert total is not None
            sums[index] += self._coordinator.decrypt_sum(query, total)

    def _run_masking(
        self,
        contributions: Mapping[str, Sequence[float]],
        down: set[str],
        sums: list[float],
    ) -> None:
        n = len(self.masking_cohort)
        if not self.policy.resilient:
            # Abort on ANY cohort dropout — including the whole cohort
            # dropping — before touching a single masked value.
            cohort_down = sorted(p for p in self.masking_cohort if p in down)
            if cohort_down:
                raise ProtocolError(
                    f"participants {cohort_down} dropped but the policy is "
                    "non-resilient; set SecureAggregationPolicy(resilient=True)"
                )
        if all(p in down for p in self.masking_cohort):
            return  # nobody left to contribute (or recover anything)
        for index in range(len(self.components)):
            if self.policy.resilient:
                assert self.threshold is not None
                aggregation = ResilientAggregation(
                    n, self.threshold, codec=self._codec, round_id=index
                )
                for position, pid in enumerate(self.masking_cohort):
                    if pid in down:
                        continue
                    participant = self._masking_participants[position]
                    aggregation.accept(
                        position,
                        participant.masked_value(
                            contributions[pid][index], round_id=index
                        ),
                    )
                survivors = {
                    position: self._masking_participants[position]
                    for position, pid in enumerate(self.masking_cohort)
                    if pid not in down
                }
                sums[index] += aggregation.recover_and_sum(survivors)
            else:
                assert self._group_seed is not None
                aggregation = MaskedAggregation(n, codec=self._codec)
                for position, pid in enumerate(self.masking_cohort):
                    participant = MaskingParticipant(
                        position, n, self._group_seed, codec=self._codec
                    )
                    aggregation.accept(
                        participant.masked_value(
                            contributions[pid][index], round_id=index
                        )
                    )
                sums[index] += aggregation.result_sum()


def histogram_components(bin_edges: Sequence[float]) -> tuple[str, ...]:
    """Component labels for a histogram over ``bin_edges``.

    ``k+1`` edges make ``k`` bins; the last bin is closed on both ends
    (numpy convention), every other bin is half-open ``[lo, hi)``.
    """
    edges = [float(e) for e in bin_edges]
    if len(edges) < 2:
        raise ProtocolError(f"histogram needs >= 2 bin edges: {edges}")
    if any(hi <= lo for lo, hi in zip(edges, edges[1:])):
        raise ProtocolError(f"bin edges must be strictly increasing: {edges}")
    labels = []
    for position, (lo, hi) in enumerate(zip(edges, edges[1:])):
        bracket = "]" if position == len(edges) - 2 else ")"
        labels.append(f"bin[{lo:g},{hi:g}{bracket}")
    return tuple(labels)
