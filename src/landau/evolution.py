"""Time integration of d_t f + L f = g and the exact derivative ladder.

Two rules keep the factorial-scale quantities trustworthy:

* the forcing is separable, g(t, v) = tau(t) phi(v), with every time
  derivative of tau available in closed form, and
* time derivatives of the solution are obtained by the exact operator
  recursion  d_t^m f = -L d_t^{m-1} f + d_t^{m-1} g,  never by finite
  differencing of trajectories, which would destroy the k! scaling.
"""

import math
from dataclasses import dataclass, field as dataclass_field
from typing import Optional

import numpy as np

from .errors import (InstabilityError, LadderOverflowError,
                     UnsupportedOrderError)
from .field import ScalarField, a_norm, inner_product, l2_norm, zeros
from .operator import stable_dt

LADDER_KMAX_CAP = 10
LADDER_OVERFLOW = 1e100
# Real-axis extent of the classical RK4 stability region: |R(z)| <= 1 on
# [-2.785, 0] (Hairer & Wanner, Solving ODEs II).
RK4_STABILITY_LIMIT = 2.785


@dataclass
class SourceModel:
    """Separable analytic forcing g(t, v) = tau(t) phi(v).

    tau kinds: "exp" (amplitude e^{-rate t}), "poly" (coefficients in
    increasing degree), "cos" (amplitude cos(omega t)).  All have closed
    form derivatives of every order.
    """

    phi: ScalarField
    tau_kind: str = "exp"
    rate: float = 1.0
    omega: float = 1.0
    amplitude: float = 1.0
    coeffs: tuple = (1.0,)
    max_order: int = 32

    def __post_init__(self):
        if self.tau_kind not in ("exp", "poly", "cos", "zero"):
            raise ValueError(f"unknown tau kind {self.tau_kind!r}")

    @classmethod
    def zero(cls, grid):
        return cls(zeros(grid), tau_kind="zero", amplitude=0.0)

    def tau_derivative(self, m, t):
        """m-th time derivative of tau at time t, in closed form."""
        if m < 0:
            raise ValueError("derivative order must be >= 0")
        if m > self.max_order:
            raise UnsupportedOrderError(
                f"order {m} above configured maximum {self.max_order}"
            )
        if self.tau_kind == "zero" or self.amplitude == 0.0:
            return 0.0
        if self.tau_kind == "exp":
            return self.amplitude * (-self.rate) ** m * math.exp(-self.rate * t)
        if self.tau_kind == "cos":
            return self.amplitude * self.omega ** m * math.cos(self.omega * t + 0.5 * m * math.pi)
        # polynomial: d^m/dt^m sum c_i t^i
        total = 0.0
        for i, c in enumerate(self.coeffs):
            if i >= m:
                total += c * math.factorial(i) / math.factorial(i - m) * t ** (i - m)
        return self.amplitude * total


def source_eval(model, m, t):
    """d_t^m g(t) as a field: tau^{(m)}(t) phi."""
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
class TimePolicy:
    safety: float = 0.4
    dt_override: Optional[float] = None   # exact step, bypassing the bound
    fallback_dt: float = 1.0 / 128.0      # used when the operator is disabled

    def dt_for(self, ctx, grid):
        if self.dt_override is not None:
            return self.dt_override
        return stable_dt(ctx.coeffs if ctx is not None else None, grid,
                         self.safety, self.fallback_dt)


@dataclass
class EvolutionState:
    f: ScalarField
    t: float = 0.0
    step_index: int = 0
    energy_log: list = dataclass_field(default_factory=list)


@dataclass
class EvolutionResult:
    state: EvolutionState
    energy_log: np.ndarray            # rows (t, l2sq, asq, gf, lff)
    snapshots: dict                   # time -> ScalarField
    dt_max: float


def _rhs(f, t, ctx, model):
    """g(t) - L f, reusing the context; ctx=None disables the operator."""
    g = source_eval(model, 0, t)
    if ctx is None:
        return g
    return g - ctx.apply(f)


def _log_row(state, ctx, model, coeffs, rhs0=None):
    f = state.f
    if rhs0 is None:
        rhs0 = _rhs(f, state.t, ctx, model)
    g = source_eval(model, 0, state.t)
    gf = inner_product(g, f)
    lff = gf - inner_product(rhs0, f)      # (Lf, f) = (g - rhs, f)
    l2sq = inner_product(f, f)
    asq = a_norm(f, coeffs) ** 2 if coeffs is not None else 0.0
    return (state.t, l2sq, asq, gf, lff), rhs0


def step(state, dt, ctx, model, coeffs=None):
    """One classical four-stage explicit Runge-Kutta step of f' = g - L f.

    Appends the energy-log row for the step start and raises
    InstabilityError if the L^2 norm grows more than tenfold.
    """
    f, t = state.f, state.t
    row, k1 = _log_row(state, ctx, model, coeffs)
    k2 = _rhs(f + (0.5 * dt) * k1, t + 0.5 * dt, ctx, model)
    k3 = _rhs(f + (0.5 * dt) * k2, t + 0.5 * dt, ctx, model)
    k4 = _rhs(f + dt * k3, t + dt, ctx, model)
    f_new = f + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    before = math.sqrt(row[1])
    after = l2_norm(f_new)
    if before > 1e-12 and after > 10.0 * before:
        raise InstabilityError(
            f"norm grew {after / before:.2f}x in one step at t={t:.4g}"
        )
    return EvolutionState(f_new, t + dt, state.step_index + 1,
                          state.energy_log + [row])


def evolve(f0, model, T, ctx, policy=TimePolicy(), snapshot_times=(), coeffs=None):
    """Integrate to time T, hitting each snapshot time exactly.

    The base step obeys the diffusion stability bound; each segment
    between requested times is subdivided uniformly.  The energy log gets
    one row per step plus the final time.
    """
    if T <= 0:
        raise ValueError("horizon T must be positive")
    if coeffs is None and ctx is not None:
        coeffs = ctx.coeffs
    dt_base = policy.dt_for(ctx, f0.grid)
    marks = sorted({float(s) for s in snapshot_times if 0.0 < s <= T} | {T})

    state = EvolutionState(f0.copy(), 0.0)
    snapshots = {}
    dt_max = 0.0
    prev = 0.0
    for mark in marks:
        span = mark - prev
        n = max(1, int(math.ceil(span / dt_base - 1e-12)))
        dt = span / n
        dt_max = max(dt_max, dt)
        for _ in range(n):
            state = step(state, dt, ctx, model, coeffs)
        state.t = mark  # guard against accumulated round-off in t
        if mark in snapshot_times or math.isclose(mark, T):
            snapshots[mark] = state.f.copy()
        prev = mark
    row, _ = _log_row(state, ctx, model, coeffs)
    state.energy_log.append(row)
    return EvolutionResult(state, np.array(state.energy_log), snapshots, dt_max)


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


def derivative_ladder(f_t, t, kmax, model, ctx, coeffs=None):
    """Build d_t^m f for m = 0..kmax by  D^m = -L D^{m-1} + d_t^{m-1} g."""
    if t <= 0:
        raise ValueError("ladder requires t > 0")
    if kmax > LADDER_KMAX_CAP:
        raise ValueError(f"kmax {kmax} above cap {LADDER_KMAX_CAP}")
    if coeffs is None and ctx is not None:
        coeffs = ctx.coeffs

    entries = [f_t.copy()]
    for m in range(1, kmax + 1):
        prev = entries[-1]
        nxt = source_eval(model, m - 1, t)
        if ctx is not None:
            nxt = nxt - ctx.apply(prev)
        if not np.all(np.abs(nxt.values) < LADDER_OVERFLOW):
            raise LadderOverflowError(f"ladder overflow at depth {m}", depth=m)
        entries.append(nxt)

    norms_l2 = np.array([l2_norm(d) for d in entries])
    if coeffs is not None:
        norms_a = np.array([a_norm(d, coeffs) for d in entries])
    else:
        norms_a = np.zeros(len(entries))
    ks = np.arange(kmax + 1, dtype=float)
    facts = np.array([math.factorial(k) for k in range(kmax + 1)], dtype=float)
    a_k = t ** ks * norms_l2 / facts
    with np.errstate(divide="ignore"):
        a_k_root = a_k ** (1.0 / (ks + 1.0))
    return DerivativeLadder(t, entries, norms_l2, norms_a, a_k, a_k_root)
