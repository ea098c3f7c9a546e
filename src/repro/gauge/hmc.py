"""Pure-gauge hybrid Monte Carlo (HMC).

The gauge-generation algorithm whose "single streams of Monte Carlo Markov
chains ... require strong scaling" (Sec. 1) — the reason the paper needs
O(100)-GPU solvers at all.  This is the quenched (pure Wilson gauge
action) version: Gaussian momenta, leapfrog molecular dynamics on the
group manifold, and a Metropolis accept/reject that makes the algorithm
exact.

Full dynamical-fermion HMC would add the fermion determinant through
pseudofermion solves — precisely the solver workload of Secs. 3 and 8;
:class:`PureGaugeHMC` exposes the trajectory machinery those solves would
plug into.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.gauge.action import (
    algebra_norm2,
    gauge_force,
    random_algebra_field,
    wilson_gauge_action,
)
from repro.lattice.fields import GaugeField
from repro.linalg import su3
from repro.util.rng import make_rng


def expm_su3(p: np.ndarray) -> np.ndarray:
    """Matrix exponential of stacked su(3) elements (exact to rounding)."""
    # SciPy's only user in the package: imported here, so nothing that
    # merely imports ``repro`` (every solve, rank worker and daemon) pays
    # its 0.3 s and 25 MB.
    import scipy.linalg

    return scipy.linalg.expm(p)


@dataclass
class TrajectoryResult:
    """One HMC trajectory's bookkeeping."""

    gauge: GaugeField
    accepted: bool
    delta_h: float
    action: float
    plaquette: float


@dataclass
class PureGaugeHMC:
    """Leapfrog HMC for the Wilson gauge action.

    Parameters
    ----------
    beta:
        Gauge coupling.
    step_size / n_steps:
        Leapfrog integration step and count (trajectory length =
        step_size * n_steps; 1.0 is customary).
    """

    beta: float
    step_size: float = 0.1
    n_steps: int = 10
    rng_seed: "int | np.random.Generator | None" = None
    history: list[TrajectoryResult] = field(default_factory=list)

    def __post_init__(self):
        self.rng = make_rng(self.rng_seed)

    # ------------------------------------------------------------------
    def hamiltonian(self, gauge: GaugeField, momenta: np.ndarray) -> float:
        return algebra_norm2(momenta) + wilson_gauge_action(gauge, self.beta)

    def leapfrog(
        self, gauge: GaugeField, momenta: np.ndarray
    ) -> tuple[GaugeField, np.ndarray]:
        """Integrate Hamilton's equations: U' = exp(eps P) U, P' = P - eps F.

        The integrator is reversible and area-preserving, so Metropolis
        with dH = H(end) - H(start) is exact.
        """
        eps = self.step_size
        u = gauge.copy()
        # Half kick, then alternating full drifts/kicks, ending on a half
        # kick: the standard reversible leapfrog.
        p = momenta - 0.5 * eps * gauge_force(u, self.beta)
        for step in range(self.n_steps):
            u = GaugeField(u.geometry, expm_su3(eps * p) @ u.data)
            kick = 0.5 * eps if step == self.n_steps - 1 else eps
            p = p - kick * gauge_force(u, self.beta)
        return u, p

    def trajectory(self, gauge: GaugeField) -> TrajectoryResult:
        """One momentum refresh + leapfrog + Metropolis step."""
        momenta = random_algebra_field((4,) + gauge.geometry.shape, self.rng)
        h_start = self.hamiltonian(gauge, momenta)
        proposal, p_end = self.leapfrog(gauge, momenta)
        # Guard against integrator drift off the group manifold.
        proposal = GaugeField(
            proposal.geometry, su3.project_su3(proposal.data)
        )
        h_end = self.hamiltonian(proposal, p_end)
        delta_h = h_end - h_start
        accept = delta_h <= 0 or self.rng.random() < np.exp(-delta_h)
        out = proposal if accept else gauge
        result = TrajectoryResult(
            gauge=out,
            accepted=bool(accept),
            delta_h=float(delta_h),
            action=wilson_gauge_action(out, self.beta),
            plaquette=out.plaquette(),
        )
        self.history.append(result)
        return result

    def run(self, gauge: GaugeField, trajectories: int) -> GaugeField:
        for _ in range(int(trajectories)):
            gauge = self.trajectory(gauge).gauge
        return gauge

    @property
    def acceptance_rate(self) -> float:
        if not self.history:
            return 0.0
        return sum(r.accepted for r in self.history) / len(self.history)
