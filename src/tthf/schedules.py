"""Step-size and training-interval schedules."""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral
from typing import Optional, Sequence


def check_integer(name: str, value, least: Optional[int] = None):
    """Refuse a count that is no integer, or one below least, naming it and its value."""
    # a fractional count would be truncated or skip steps silently; JSON
    # true/false load as bool, a subclass of int
    if not isinstance(value, Integral) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {value!r}")


@dataclass(frozen=True)
class StepSchedule:
    """eta_t = gamma/(t+alpha) when diminishing, or a constant eta."""

    kind: str = "diminishing"
    gamma: float = 1.0
    alpha: float = 1.0
    eta_const: float = 0.01

    def __post_init__(self):
        if self.kind not in ("diminishing", "constant"):
            raise ValueError(f"unknown step schedule kind {self.kind!r}")
        if self.kind == "diminishing" and (self.gamma <= 0 or self.alpha <= 0):
            raise ValueError("diminishing schedule needs gamma > 0 and alpha > 0")
        if self.kind == "constant" and self.eta_const <= 0:
            raise ValueError("constant schedule needs eta > 0")

    def eta(self, t: int) -> float:
        if self.kind == "constant":
            return self.eta_const
        return self.gamma / (t + self.alpha)


@dataclass(frozen=True)
class GammaPlan:
    """Per-timestep D2D round plan for fixed-parameter runs.

    mode "fixed": `value` rounds at every `cadence`-th local step of each
    interval; "certified": rounds chosen per cluster each step so the
    contraction certificate meets the eta_t*phi error target (exact divergence).
    The default, a fixed plan of 0 rounds, is the one plan that runs no consensus.
    """

    mode: str = "fixed"
    value: int = 0
    cadence: int = 5
    phi: float = 1.0
    max_rounds: int = 100

    def __post_init__(self):
        if self.mode not in ("fixed", "certified"):
            raise ValueError(f"unknown gamma plan mode {self.mode!r}")
        for name in ("value", "cadence"):
            check_integer(name, getattr(self, name))
        # adaptive runs read max_rounds as their round cap, whatever the mode
        check_integer("max_rounds", self.max_rounds, 0)
        if self.mode == "fixed" and (self.value < 0 or self.cadence < 1):
            raise ValueError("fixed gamma plan needs value >= 0 and cadence >= 1")
        if self.mode == "certified" and self.phi <= 0:
            raise ValueError("certified gamma plan needs phi > 0")


@dataclass(frozen=True)
class TrainingSchedule:
    """Total duration plus the interval lengths tau_k covering it."""

    T: int
    taus: Sequence[int] = field(default_factory=tuple)

    def __post_init__(self):
        check_integer("T", self.T, 1)
        for k, tau in enumerate(self.taus):
            check_integer(f"taus[{k}]", tau, 1)
        taus = tuple(int(x) for x in self.taus)
        if not taus:
            raise ValueError("need at least one interval length")
        if sum(taus) < self.T:
            raise ValueError(f"interval lengths sum to {sum(taus)} < T={self.T}")
        object.__setattr__(self, "taus", taus)

    @classmethod
    def uniform(cls, T: int, tau: int) -> "TrainingSchedule":
        check_integer("T", T)
        check_integer("tau", tau, 1)
        n_full, rem = divmod(T, tau)
        taus = [tau] * n_full + ([rem] if rem else [])
        return cls(T=T, taus=taus)
