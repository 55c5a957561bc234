"""Energy/delay unit costs and objective weights for the resource trade-off."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class CostParams:
    """Per-event costs (J, s) and the objective weights c1..c3.

    e_glob / delta_glob price one sampled global aggregation (one upload per
    cluster); full-participation runs scale them by uploads/N.
    """

    e_d2d: float = 0.04
    e_glob: float = 1.0
    delta_d2d: float = 0.04
    delta_glob: float = 1.0
    c1: float = 1e-3
    c2: float = 1e2
    c3: float = 1e4

    def __post_init__(self):
        for name in ("e_d2d", "e_glob", "delta_d2d", "delta_glob", "c1", "c2", "c3"):
            # an int cost would give a run's energy and delay columns an int dtype
            object.__setattr__(self, name, float(getattr(self, name)))
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    def interval_terms(
        self, energy: float, delay: float, t_km1: int, tau: int, alpha: Optional[float] = None
    ) -> tuple[float, float, float]:
        """Objective terms of one interval: c1*E/tau, c2*D/tau, c3*progress.

        progress = 1 - (t_km1+alpha)/(t_km1+tau+alpha) is the relative decay of a
        gamma/(t+alpha) step size over the interval; without an alpha it is 0.
        """
        progress = 0.0 if alpha is None else 1.0 - (t_km1 + alpha) / (t_km1 + tau + alpha)
        return self.c1 * energy / tau, self.c2 * delay / tau, self.c3 * progress
