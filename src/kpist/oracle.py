"""Direct pseudospectral solver on a periodic box.

Integrating-factor fourth-order Runge-Kutta (IF-RK4, see Kassam and
Trefethen, SIAM J. Sci. Comput. 26, 2005) for the evolution
u_t = -u_xxx + 3 dx^{-1} u_yy - 6 u u_x on zero-x-mean data: the linear
part advances exactly through e^{i t (p^3 + 3 q^2/p)}, the quadratic
term -3 i p (u^2)^ goes through the stages with 2/3-rule dealiasing.
The field is real, so the state holds the half spectrum q >= 0 of a
real 2-D FFT. Its p = 0 row (undefined dispersion, empty by zero-mean)
is zeroed bitwise after every step.

Because the integrating factor carries the dispersion exactly, the step
is limited by accuracy, not by the dispersion rate. Without an explicit
dt, `evolve` picks the number of steps by step doubling: the runs with
k and 2k steps over the whole interval must agree to
STEP_TOL = 1e-8 of max|u|, and the 2k-step field is returned. That
certifies the temporal error only: for a fourth-order scheme the error
of the finer run is about a fifteenth of the certified difference.
Spatial resolution and the periodic box are not certified; the L2 drift
guard (L2_DRIFT_TOL) rejects a march that lost the conserved norm.

This is the checking-side solver: it shares nothing with the kernel
pipeline except the field type, so pointwise agreement of the two is
evidence for both. The periodic box limits the useful horizon to small
times; dispersive tails wrap around long before the decay regime.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
from scipy import fft

from .grids import Grid1D, PotentialField

__all__ = [
    "OracleState",
    "cfl_bound",
    "step",
    "evolve",
]

L2_DRIFT_TOL = 1e-6
ZERO_MEAN_TOL = 1e-8
# relative agreement of the k- and 2k-step runs that accepts a step size
STEP_TOL = 1e-8
# step doubling gives up beyond this many steps per call (4x what a
# t = 2 call on the 256^2 bench box needs)
MAX_STEPS = 2 ** 12


def _dealias_mask(grid_x: Grid1D, grid_y: Grid1D) -> np.ndarray:
    """2/3-rule mask on the half spectrum (all p, q >= 0)."""
    ip = np.abs(fft.fftfreq(grid_x.n, d=1.0 / grid_x.n))[:, None]
    iq = fft.rfftfreq(grid_y.n, d=1.0 / grid_y.n)[None, :]
    return (ip <= grid_x.n // 3) & (iq <= grid_y.n // 3)


def _omega(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Dispersion multiplier p^3 + 3 q^2/p, 0 on the p = 0 row."""
    psafe = np.where(p == 0.0, 1.0, p)
    return np.where(p == 0.0, 0.0, psafe ** 3 + 3.0 * q ** 2 / psafe)


def cfl_bound(u: PotentialField) -> float:
    """Advective CFL bound of the quadratic term, 1/(6 p_max max|u|).

    p_max is the largest dealiased |p|. The dispersion needs no bound:
    the integrating factor advances it exactly. Inside this bound the
    stage rate 6 p max|u| dt of the term -6 u u_x stays within the RK4
    stability region; accuracy is left to the step doubling of
    `evolve`. A zero field has no bound (inf)."""
    p_max = u.grid_x.dual_spacing * (u.grid_x.n // 3)
    scale = u.max_abs()
    return 1.0 / (6.0 * p_max * scale) if scale > 0.0 else np.inf


def _check_dt(dt: float, bound: float) -> None:
    """Reject a step that is not finite and positive or exceeds bound."""
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt = {dt} must be finite and positive")
    if dt > bound * (1.0 + 1e-12):
        raise ValueError(
            f"dt = {dt:.3e} exceeds the admissible bound {bound:.3e}")


@dataclasses.dataclass(frozen=True)
class OracleState:
    """One snapshot of the direct solver.

    u_hat holds the half spectrum (q >= 0) of the real 2-D FFT of the
    field, p along axis 0; the p = 0 row u_hat[0] is identically zero.
    The multipliers and the bound are built once from the initial field
    and carried along; `phases` keeps the exponentials of the last dt."""

    grid_x: Grid1D
    grid_y: Grid1D
    u_hat: np.ndarray
    t: float
    dt: float
    bound: float
    dealias_mask: np.ndarray
    omega: np.ndarray
    nl_mult: np.ndarray
    phases: tuple | None = None

    @classmethod
    def from_field(cls, u0: PotentialField, dt: float | None = None
                   ) -> "OracleState":
        if u0.x_mean_defect() > ZERO_MEAN_TOL:
            raise ValueError(
                "initial field has nonvanishing x-mean per row "
                f"({u0.x_mean_defect():.3e} relative)")
        bound = cfl_bound(u0)
        if dt is not None:
            _check_dt(dt, bound)
        gx, gy = u0.grid_x, u0.grid_y
        p = 2.0 * np.pi * fft.fftfreq(gx.n, d=gx.spacing)[:, None]
        q = 2.0 * np.pi * fft.rfftfreq(gy.n, d=gy.spacing)[None, :]
        mask = _dealias_mask(gx, gy)
        uh = fft.rfft2(u0.values)
        uh[0] = 0.0
        return cls(gx, gy, uh, 0.0, float(bound if dt is None else dt), bound,
                   mask, _omega(p, q), np.where(mask, -3j * p, 0.0))

    def to_field(self) -> PotentialField:
        return PotentialField(self.grid_x, self.grid_y, fft.irfft2(
            self.u_hat, s=(self.grid_x.n, self.grid_y.n)))

    def l2_norm(self) -> float:
        return self.to_field().l2_norm()


def _nonlinear(state: OracleState, u_hat: np.ndarray) -> np.ndarray:
    u = fft.irfft2(u_hat, s=(state.grid_x.n, state.grid_y.n))
    return state.nl_mult * fft.rfft2(u * u)


def step(state: OracleState, dt: float | None = None) -> OracleState:
    """One integrating-factor RK4 step."""
    if dt is None:
        dt = state.dt
    _check_dt(dt, state.bound)
    if state.phases is not None and state.phases[0] == dt:
        _, e_half, e_full = state.phases
    else:
        e_half = np.exp(0.5j * dt * state.omega)
        e_full = e_half * e_half
    uh = state.u_hat
    half_uh = e_half * uh

    k1 = _nonlinear(state, uh)
    k2 = _nonlinear(state, e_half * (uh + 0.5 * dt * k1))
    k3 = _nonlinear(state, half_uh + 0.5 * dt * k2)
    k4 = _nonlinear(state, e_half * (half_uh + dt * k3))
    out = e_full * uh + (dt / 6.0) * (e_full * k1
                                      + 2.0 * e_half * (k2 + k3) + k4)
    out[0] = 0.0
    if not np.all(np.isfinite(out)):
        raise RuntimeError(
            f"non-finite spectrum after the step at t = {state.t:.6g} "
            f"(max |u_hat| before: {np.max(np.abs(uh)):.3e})")
    return dataclasses.replace(state, u_hat=out, t=state.t + dt,
                               phases=(dt, e_half, e_full))


def _march(state: OracleState, t_final: float, n_steps: int
           ) -> PotentialField:
    dt = t_final / n_steps
    for _ in range(n_steps):
        state = step(state, dt)
    return state.to_field()


def _march_doubling(state: OracleState, t_final: float) -> PotentialField:
    """March with k and 2k steps from k = ceil(t_final / bound), doubling
    k until the two runs agree to STEP_TOL of max|u|; return the finer."""
    k = max(1, int(np.ceil(t_final / state.bound - 1e-12)))
    coarse = _march(state, t_final, k)
    change = np.inf
    while 2 * k <= MAX_STEPS:
        fine = _march(state, t_final, 2 * k)
        diff = np.max(np.abs(fine.values - coarse.values))
        scale = fine.max_abs()
        if diff <= STEP_TOL * scale:
            return fine
        change = diff / scale
        coarse, k = fine, 2 * k
    raise RuntimeError(
        f"step doubling missed STEP_TOL = {STEP_TOL:g} within {MAX_STEPS} "
        f"steps over t = {t_final:.6g} (last relative change "
        f"{change:.3e} at {k} steps)")


def evolve(u0: PotentialField, t_final: float, dt: float | None = None
           ) -> PotentialField:
    """March to t_final and hand back the field.

    With dt = None the number of steps is chosen by step doubling (see
    the module docstring): the returned field differs by at most
    STEP_TOL * max|u| from the run at twice its step, and a call that
    does not get there within MAX_STEPS steps raises RuntimeError. An
    explicit dt (at most `cfl_bound`) is shrunk to divide t_final evenly
    and is not checked for accuracy. Either way the discrete L2 norm is
    conserved by the flow; a relative drift beyond L2_DRIFT_TOL from the
    start aborts with a sizing hint."""
    if not 0 <= t_final < np.inf:
        raise ValueError("t_final must be finite and nonnegative")
    state = OracleState.from_field(u0, dt)
    if t_final == 0:
        return u0
    if dt is None:
        out = _march_doubling(state, t_final)
    else:
        out = _march(state, t_final,
                     max(1, int(np.ceil(t_final / dt - 1e-12))))
    n0 = state.l2_norm()
    n1 = out.l2_norm()
    if n0 > 0 and abs(n1 - n0) / n0 > L2_DRIFT_TOL:
        raise RuntimeError(
            f"L2 norm drifted by {abs(n1 - n0)/n0:.3e} (tol {L2_DRIFT_TOL}) "
            "over the run; reduce dt or enlarge the box")
    return out
