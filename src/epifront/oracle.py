"""Independent references for verification.

The spatially homogeneous ODE companion system (an upper solution for
the PDE), a discrete Rayleigh-quotient check of the closed-form
eigenvalue, and grid-refinement studies.  These run in the test suite
and verification paths, never inside the production integrator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .analysis import mass_balance_residual
from .errors import BlowUpError, DomainError
from .model import InfectionResponse, InitialData, ModelParams, principal_eigenvalue
from .solver import SolverConfig, simulate

if TYPE_CHECKING:  # pragma: no cover
    from .solver import Trajectory


@dataclass(frozen=True)
class OdeSeries:
    t: np.ndarray
    u: np.ndarray
    v: np.ndarray

    def at(self, times) -> tuple[np.ndarray, np.ndarray]:
        times = np.asarray(times, dtype=float)
        return np.interp(times, self.t, self.u), np.interp(times, self.t, self.v)


def ode_solve(
    p: ModelParams, resp: InfectionResponse, u0: float, v0: float, t_max: float
) -> OdeSeries:
    """Classic fourth-order fixed-step integration of the homogeneous system.

    du/dt = -a11 u + a12 v,  dv/dt = -a22 v + G(u).  The step is about
    1e-3 / max(a11, a22), shortened to divide t_max evenly; no
    adaptivity, for bitwise reproducibility.
    """
    if u0 < 0 or v0 < 0:
        raise DomainError("initial scalars must be nonnegative")
    if not t_max > 0:
        raise DomainError("t_max must be > 0")
    n = max(1, math.ceil(t_max / (1e-3 / max(p.a11, p.a22))))
    dt = t_max / n

    a11, a12, a22 = p.a11, p.a12, p.a22
    t = np.linspace(0.0, t_max, n + 1)
    u = np.empty(n + 1)
    v = np.empty(n + 1)
    u[0], v[0] = u0, v0
    uk, vk = float(u0), float(v0)
    for k in range(n):
        k1u = -a11 * uk + a12 * vk
        k1v = -a22 * vk + resp(uk)
        u2 = uk + 0.5 * dt * k1u
        v2 = vk + 0.5 * dt * k1v
        k2u = -a11 * u2 + a12 * v2
        k2v = -a22 * v2 + resp(u2)
        u3 = uk + 0.5 * dt * k2u
        v3 = vk + 0.5 * dt * k2v
        k3u = -a11 * u3 + a12 * v3
        k3v = -a22 * v3 + resp(u3)
        u4 = uk + dt * k3u
        v4 = vk + dt * k3v
        k4u = -a11 * u4 + a12 * v4
        k4v = -a22 * v4 + resp(u4)
        uk += dt * (k1u + 2.0 * k2u + 2.0 * k3u + k4u) / 6.0
        vk += dt * (k1v + 2.0 * k2v + 2.0 * k3v + k4v) / 6.0
        u[k + 1], v[k + 1] = uk, vk
    if not (math.isfinite(uk) and math.isfinite(vk)):
        raise BlowUpError("ODE solution became non-finite", t_max, 0.0, 0.0)
    return OdeSeries(t=t, u=u, v=v)


def dominance_check(traj: "Trajectory", ode: OdeSeries, tol: float) -> float:
    """Worst excess of the PDE fields over the ODE upper solution.

    The ODE must be initialized at the sup norms of the initial data;
    then every frame should sit below it and the return value is 0.
    """
    times = traj.column("t")
    u_bar, v_bar = ode.at(times)
    worst = 0.0
    for k, frame in enumerate(traj.frames):
        worst = max(
            worst,
            frame.sup_w - u_bar[k] - tol,
            frame.sup_z - v_bar[k] - tol,
        )
    return max(0.0, worst)


@dataclass(frozen=True)
class RefinementResult:
    final_h: tuple[float, ...]
    residuals: tuple[float, ...]
    front_orders: tuple[float, ...]
    residual_orders: tuple[float, ...]
    conclusive: bool


def refinement_study(
    p: ModelParams,
    resp: InfectionResponse,
    init: InitialData,
    base_config: SolverConfig,
    t_end: float,
) -> RefinementResult:
    """Run the scenario at N, 2N and 4N cells with dt scaled like the mesh.

    The study refines a fixed step, so ``base_config.dt_max`` must be set;
    an unset one (error-controlled steps) raises DomainError on ``dt_max``.
    Observed orders come from successive-difference ratios of the final
    right front and from the mass-balance residual at t_end.  The study
    is flagged inconclusive when the differences are not decreasing.
    """
    base = base_config.resolved(p)
    if base.dt_max is None:
        raise DomainError("refinement_study refines a fixed step: set dt_max", field="dt_max")
    final_h = []
    residuals = []
    for k in range(3):
        cfg = replace(
            base,
            n_cells=base.n_cells * 2**k,
            dt_max=base.dt_max / 2**k,
            t_max=t_end,
            frame_stride=1,
            early_stop=False,
        )
        traj, _ = simulate(p, resp, init, cfg)
        final_h.append(traj.final.h)
        residuals.append(abs(float(mass_balance_residual(traj)[-1])))

    diffs = [abs(final_h[1] - final_h[0]), abs(final_h[2] - final_h[1])]
    front_orders = (math.log2(diffs[0] / diffs[1]) if diffs[1] > 0 else math.inf,)
    residual_orders = tuple(
        math.log2(residuals[k] / residuals[k + 1]) if residuals[k + 1] > 0 else math.inf
        for k in range(2)
    )
    conclusive = diffs[1] < diffs[0] and all(residuals[k + 1] < residuals[k] for k in range(2))
    return RefinementResult(
        final_h=tuple(final_h),
        residuals=tuple(residuals),
        front_orders=front_orders,
        residual_orders=residual_orders,
        conclusive=conclusive,
    )


def eigen_check(
    p: ModelParams, resp: InfectionResponse, width: float, n_cells: int = 256
) -> float:
    """Rayleigh-quotient discrepancy of the discrete linearized operator.

    Samples the principal eigenfunction sin(pi (x - g)/(h - g)) on a
    uniform grid, applies -d D2 + (a11 - G'(0) a12/a22) with the
    3-point Laplacian, and returns the quotient minus the closed-form
    eigenvalue.  Expected O(dx^2).
    """
    if not width > 0:
        raise DomainError(f"width must be > 0 (got {width!r})")
    x = np.linspace(0.0, width, n_cells + 1)
    psi = np.sin(np.pi * x / width)
    psi[0] = psi[-1] = 0.0
    dx = width / n_cells
    lap = (psi[2:] - 2.0 * psi[1:-1] + psi[:-2]) / (dx * dx)
    shift = p.a11 - resp.deriv_at_zero * p.a12 / p.a22
    applied = -p.d * lap + shift * psi[1:-1]
    rayleigh = float(np.dot(psi[1:-1], applied) / np.dot(psi[1:-1], psi[1:-1]))
    return rayleigh - principal_eigenvalue(p, resp, width)
