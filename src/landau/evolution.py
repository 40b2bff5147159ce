"""Time integration of d_t f + L f = g and the exact derivative ladder.

Two rules keep the factorial-scale quantities trustworthy:

* the forcing is separable, g(t, v) = amplitude e^{-rate t} phi(v), with
  every time derivative available in closed form, and
* time derivatives of the solution are obtained by the exact operator
  recursion  d_t^m f = -L d_t^{m-1} f + d_t^{m-1} g,  never by finite
  differencing of trajectories, which would destroy the k! scaling.

There is one integrator, classical RK4 (`evolve`, one `step` per RK4
step), and one guard on it: a step whose dt*rho(L) reaches the real-axis
limit of the RK4 stability region is refused before it is taken.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InstabilityError, LadderOverflowError
from .field import ScalarField, a_norm, inner_product, l2_norm, zeros

LADDER_KMAX_CAP = 10
LADDER_OVERFLOW = 1e100
# Real-axis extent of the classical RK4 stability region: |R(z)| <= 1 on
# [-2.785, 0] (Hairer & Wanner, Solving ODEs II).
RK4_STABILITY_LIMIT = 2.785
# dt*rho(L) of the coarsest energy-identity rung, inside the RK4 limit
LADDER_DT_RHO = 2.4
# dt*rho(L) of the trajectory: one halving below the finest energy-identity
# rung (4 n0 steps), whose fourth-order convergence the energy suite
# measures.  The N=24 snapshots lie up to 1.4e-9 from a DOP853 reference
# solution at 0.3, and up to 1.1e-8 at 0.5.
TRAJECTORY_DT_RHO = LADDER_DT_RHO / 8


@dataclass
class SourceModel:
    """Separable analytic forcing g(t, v) = amplitude e^{-rate t} phi(v),
    whose time derivatives of every order are in closed form."""

    phi: ScalarField
    rate: float = 1.0
    amplitude: float = 1.0

    @classmethod
    def zero(cls, grid):
        return cls(zeros(grid), amplitude=0.0)

    def tau_derivative(self, m, t):
        """m-th time derivative of amplitude e^{-rate t} at time t."""
        if m < 0:
            raise ValueError("derivative order must be >= 0")
        if self.amplitude == 0.0:
            return 0.0  # +0.0, where 0.0 * (-rate) ** m gives -0.0 for odd m
        return self.amplitude * (-self.rate) ** m * math.exp(-self.rate * t)


def source_eval(model, m, t):
    """d_t^m g(t) as a field: d_t^m (amplitude e^{-rate t}) phi."""
    return model.tau_derivative(m, t) * model.phi


def measure_source_bound(model, T, kmax=8, samples=65):
    """A_g = sup_{k<=kmax, t<=T} (t^k ||d_t^k g|| / k!)^{1/(k+1)}."""
    phi_norm = l2_norm(model.phi)
    ts = np.linspace(0.0, T, samples)
    best = 0.0
    for k in range(kmax + 1):
        fk = math.factorial(k)
        for t in ts:
            val = (t ** k) * abs(model.tau_derivative(k, t)) * phi_norm / fk
            best = max(best, val ** (1.0 / (k + 1)))
    return best


# ---------------------------------------------------------------------------
# time stepping
# ---------------------------------------------------------------------------

@dataclass
class EvolutionState:
    f: ScalarField
    t: float = 0.0
    step_index: int = 0


@dataclass
class EvolutionResult:
    state: EvolutionState
    energy_log: np.ndarray            # rows (t, l2sq, asq, gf, lff)
    snapshots: dict                   # time -> ScalarField


def _rhs(f, t, ctx, model):
    """g(t) - L f."""
    return source_eval(model, 0, t) - ctx.apply(f)


def _log_row(f, t, ctx, model):
    """The energy-log row (t, ||f||^2, ||f||_A^2, (g, f), (Lf, f)) and the
    right-hand side g(t) - L f it is read from."""
    g = source_eval(model, 0, t)
    rhs = g - ctx.apply(f)
    gf = inner_product(g, f)
    lff = gf - inner_product(rhs, f)      # (Lf, f) = (g - rhs, f)
    return (t, inner_product(f, f), a_norm(f, ctx.coeffs) ** 2, gf, lff), rhs


def step(f, t, dt, ctx, model):
    """One classical four-stage explicit Runge-Kutta step of f' = g - L f
    from time t; returns the new field and the energy-log row of the step
    start, which shares its evaluation of g(t) - L f with the first stage."""
    row, k1 = _log_row(f, t, ctx, model)
    k2 = _rhs(f + (0.5 * dt) * k1, t + 0.5 * dt, ctx, model)
    k3 = _rhs(f + (0.5 * dt) * k2, t + 0.5 * dt, ctx, model)
    k4 = _rhs(f + dt * k3, t + dt, ctx, model)
    return f + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), row


def evolve(f0, model, T, ctx, dt=None, snapshot_times=()):
    """Integrate to time T, hitting each snapshot time exactly.

    The base step `dt` defaults to TRAJECTORY_DT_RHO / rho(L); each
    segment between requested times is subdivided uniformly at no more
    than it.  A base step that is not positive, or whose dt*rho(L) is at
    or beyond the real-axis RK4 limit, raises InstabilityError before any
    step is taken.  The energy log gets one row per step plus the final
    time.
    """
    if T <= 0:
        raise ValueError("horizon T must be positive")
    rho = ctx.spectral_radius
    if dt is None:
        dt = TRAJECTORY_DT_RHO / rho
    if not (dt > 0 and dt * rho < RK4_STABILITY_LIMIT):
        raise InstabilityError(
            f"step dt = {dt:.4g} with dt*rho(L) = {dt * rho:.4g} is not a "
            f"positive step inside the RK4 stability limit {RK4_STABILITY_LIMIT}")
    marks = sorted({float(s) for s in snapshot_times if 0.0 < s <= T} | {T})

    f, t, log = f0, 0.0, []
    snapshots = {}
    prev = 0.0
    for mark in marks:
        span = mark - prev
        n = max(1, int(math.ceil(span / dt - 1e-12)))
        h = span / n
        for _ in range(n):
            f, row = step(f, t, h, ctx, model)
            log.append(row)
            t += h
        t = mark  # guard against accumulated round-off in t
        if mark in snapshot_times or math.isclose(mark, T):
            snapshots[mark] = f.copy()
        prev = mark
    state = EvolutionState(f, t, len(log))
    log.append(_log_row(f, t, ctx, model)[0])
    return EvolutionResult(state, np.array(log), snapshots)


# ---------------------------------------------------------------------------
# derivative ladder
# ---------------------------------------------------------------------------

@dataclass
class DerivativeLadder:
    """Exact time derivatives of the solution at a fixed time t > 0.

    entries[m] = d_t^m f(t) via the operator recursion; a_k is the
    factorial-normalized magnitude t^k ||d_t^k f|| / k! whose boundedness
    in k expresses time analyticity."""

    t: float
    entries: list
    norms_l2: np.ndarray
    norms_a: np.ndarray
    a_k: np.ndarray
    a_k_root: np.ndarray


def derivative_ladder(f_t, t, kmax, model, ctx):
    """Build d_t^m f for m = 0..kmax by  D^m = -L D^{m-1} + d_t^{m-1} g."""
    if t <= 0:
        raise ValueError("ladder requires t > 0")
    if kmax > LADDER_KMAX_CAP:
        raise ValueError(f"kmax {kmax} above cap {LADDER_KMAX_CAP}")

    entries = [f_t.copy()]
    for m in range(1, kmax + 1):
        nxt = source_eval(model, m - 1, t) - ctx.apply(entries[-1])
        if not np.all(np.abs(nxt.values) < LADDER_OVERFLOW):
            raise LadderOverflowError(f"ladder overflow at depth {m}", depth=m)
        entries.append(nxt)

    norms_l2 = np.array([l2_norm(d) for d in entries])
    norms_a = np.array([a_norm(d, ctx.coeffs) for d in entries])
    ks = np.arange(kmax + 1, dtype=float)
    facts = np.array([math.factorial(k) for k in range(kmax + 1)], dtype=float)
    a_k = t ** ks * norms_l2 / facts
    with np.errstate(divide="ignore"):
        a_k_root = a_k ** (1.0 / (ks + 1.0))
    return DerivativeLadder(t, entries, norms_l2, norms_a, a_k, a_k_root)
