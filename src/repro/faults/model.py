"""Declarative fault specifications for the PMU sample stream.

The :class:`~repro.sampling.pmu.PMUSimulator` produces *ideal* streams:
every interrupt is delivered, every PC is exact, the period never drifts.
Real ADORE-style systems see none of that — sampling interrupts are lost
under load, the reported PC skids past the interrupted instruction,
timer programming drifts, ring buffers deliver duplicates, and stalled
interrupt windows coalesce many periods into one delivered sample.  This
module describes those failure modes declaratively; the transformers in
:mod:`repro.faults.inject` apply them to a stream deterministically.

Each spec is a small frozen dataclass that validates its rates/ranges in
``__post_init__`` (raising :class:`~repro.errors.ConfigError`) and knows

* whether it is a *no-op* (rate 0 — guaranteed byte-identical output);
* its ``token()`` — a hashable, pure-literal tuple used in cache keys.

A :class:`FaultPlan` is an ordered composition of specs.  The empty plan
(or a plan of no-ops) applies as the identity.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.errors import ConfigError

__all__ = [
    "FaultSpec",
    "SampleDrop",
    "PcSkid",
    "PeriodJitter",
    "PeriodDrift",
    "DuplicateSamples",
    "PcBitCorruption",
    "InterruptStall",
    "FaultPlan",
]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


@dataclass(frozen=True, slots=True)
class FaultSpec:
    """Base class of all fault specifications (never instantiated as-is)."""

    #: Class-level identifier used in tokens and cache keys.
    kind = "abstract"

    def is_noop(self) -> bool:
        """Whether applying this spec is guaranteed to change nothing."""
        return False

    def token(self) -> tuple:
        """Hashable ``(kind, (field, value), ...)`` identity of the spec."""
        return (self.kind,) + tuple(
            (f.name, getattr(self, f.name)) for f in fields(self))


@dataclass(frozen=True, slots=True)
class SampleDrop(FaultSpec):
    """Lost sampling interrupts: each sample is dropped at ``rate``.

    With ``burst_mean > 1`` the losses are bursty: a loss starts a burst
    whose length is geometric with the given mean, modeling the
    buffer-overrun pattern where consecutive interrupts are lost together
    rather than independently.  The marginal drop probability stays
    ``rate`` (burst starts are thinned by the mean burst length).
    """

    kind = "drop"
    rate: float = 0.0
    burst_mean: float = 1.0

    def __post_init__(self) -> None:
        _require(0.0 <= self.rate < 1.0, "drop rate must lie in [0, 1)")
        _require(self.burst_mean >= 1.0, "burst_mean must be at least 1")

    def is_noop(self) -> bool:
        """Whether applying this spec is guaranteed to change nothing."""
        return self.rate == 0.0


@dataclass(frozen=True, slots=True)
class PcSkid(FaultSpec):
    """Interrupt skid: the reported PC lies past the true one.

    ``distribution`` is ``"gaussian"`` (symmetric, standard deviation
    ``scale`` instruction slots) or ``"exponential"`` (one-sided forward
    skid with mean ``scale`` slots, the behavior of real deferred-trap
    hardware).  Skidded PCs are clipped to the stream's observed text
    range, so the address-space invariant survives.
    """

    kind = "skid"
    distribution: str = "exponential"
    scale: float = 0.0

    def __post_init__(self) -> None:
        _require(self.distribution in ("gaussian", "exponential"),
                 "skid distribution must be 'gaussian' or 'exponential'")
        _require(self.scale >= 0.0, "skid scale must be non-negative")

    def is_noop(self) -> bool:
        """Whether applying this spec is guaranteed to change nothing."""
        return self.scale == 0.0


@dataclass(frozen=True, slots=True)
class PeriodJitter(FaultSpec):
    """Interrupt-time jitter: each cycle stamp moves by up to
    ``fraction`` of the sampling period (uniform, then re-monotonized)."""

    kind = "jitter"
    fraction: float = 0.0

    def __post_init__(self) -> None:
        _require(0.0 <= self.fraction < 0.5,
                 "jitter fraction must lie in [0, 0.5)")

    def is_noop(self) -> bool:
        """Whether applying this spec is guaranteed to change nothing."""
        return self.fraction == 0.0


@dataclass(frozen=True, slots=True)
class PeriodDrift(FaultSpec):
    """Timer drift: inter-sample gaps stretch linearly over the run until
    the final gap is ``(1 + rate)`` periods, modeling a free-running timer
    that is never re-calibrated."""

    kind = "drift"
    rate: float = 0.0

    def __post_init__(self) -> None:
        _require(-0.9 <= self.rate <= 10.0,
                 "drift rate must lie in [-0.9, 10]")

    def is_noop(self) -> bool:
        """Whether applying this spec is guaranteed to change nothing."""
        return self.rate == 0.0


@dataclass(frozen=True, slots=True)
class DuplicateSamples(FaultSpec):
    """Ring-buffer double delivery: each sample is duplicated in place
    with probability ``rate``."""

    kind = "duplicate"
    rate: float = 0.0

    def __post_init__(self) -> None:
        _require(0.0 <= self.rate < 1.0,
                 "duplicate rate must lie in [0, 1)")

    def is_noop(self) -> bool:
        """Whether applying this spec is guaranteed to change nothing."""
        return self.rate == 0.0


@dataclass(frozen=True, slots=True)
class PcBitCorruption(FaultSpec):
    """Corrupted PC delivery: with probability ``rate`` a sample's PC has
    one uniformly chosen bit (below ``bit_width``) flipped.

    This is the one fault that may push PCs outside the monitored address
    space — which is exactly the case attribution, formation and the
    detectors must degrade through rather than crash on.
    """

    kind = "corrupt"
    rate: float = 0.0
    bit_width: int = 24

    def __post_init__(self) -> None:
        _require(0.0 <= self.rate < 1.0,
                 "corruption rate must lie in [0, 1)")
        _require(1 <= self.bit_width <= 48,
                 "bit_width must lie in [1, 48]")

    def is_noop(self) -> bool:
        """Whether applying this spec is guaranteed to change nothing."""
        return self.rate == 0.0


@dataclass(frozen=True, slots=True)
class InterruptStall(FaultSpec):
    """Stalled interrupt windows: with probability ``rate`` a stall
    begins, swallowing the next ``2..max_window`` samples into one — the
    survivor (the window's last sample) carries the whole window's
    retired-instruction count, as a coalescing PMU driver would report."""

    kind = "stall"
    rate: float = 0.0
    max_window: int = 8

    def __post_init__(self) -> None:
        _require(0.0 <= self.rate < 1.0,
                 "stall rate must lie in [0, 1)")
        _require(self.max_window >= 2,
                 "max_window must be at least 2")

    def is_noop(self) -> bool:
        """Whether applying this spec is guaranteed to change nothing."""
        return self.rate == 0.0


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, validated composition of fault specs.

    Specs apply in sequence, each drawing from its own seed-derived RNG
    stream, so a plan is a pure function of ``(stream, seed)``.  The empty
    plan — and any plan of no-op specs — is the identity.
    """

    specs: tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.specs, tuple):
            object.__setattr__(self, "specs", tuple(self.specs))
        for spec in self.specs:
            if not isinstance(spec, FaultSpec) or type(spec) is FaultSpec:
                raise ConfigError(
                    f"fault plan entries must be concrete FaultSpecs, "
                    f"got {spec!r}")

    @property
    def is_empty(self) -> bool:
        """Whether applying the plan is guaranteed to change nothing."""
        return all(spec.is_noop() for spec in self.specs)

    @property
    def allows_corruption(self) -> bool:
        """Whether the plan may move PCs outside the text range."""
        return any(spec.kind == "corrupt" and not spec.is_noop()
                   for spec in self.specs)

    def token(self) -> tuple:
        """Hashable identity for cache keys."""
        return tuple(spec.token() for spec in self.specs)

    def describe(self) -> str:
        """Short human-readable summary (experiment row labels)."""
        if not self.specs:
            return "none"
        parts = []
        for spec in self.specs:
            values = ",".join(f"{name}={value}" for name, value in
                              ((f.name, getattr(spec, f.name))
                               for f in fields(spec)))
            parts.append(f"{spec.kind}({values})")
        return "+".join(parts)
