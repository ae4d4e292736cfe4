"""Stochastic oracles for the cocoercive operator: unbiased noise models,
variance schedules, and summability certificates.

Every oracle answers ``sample(x, n)``, and its noise is a fixed function of
(seed, n): the same key gives the same bits, whatever was asked before.  The
gaussian oracle draws its standard normals in blocks of NOISE_BLOCK steps,
block n // NOISE_BLOCK from an RNG keyed by (seed, n // NOISE_BLOCK, 0); the
minibatch oracle draws each step's batch from an RNG keyed by (seed, n, 0).
Either way the noise at step n is independent of x_n, which depends only on
the noise of steps before n, so given the history the sample is unbiased
with the scheduled variance.  Independent replicates at one step come from
distinct seeds.

A noisy oracle holds a tuple of seeds, one per row: ``x`` may be a vector
(drawn with the first seed) or an (S, d) array whose row i is drawn with
``seeds[i]``, so the rows never mix and each is bitwise the sample a
one-seed oracle gives for that row.  A run keeps every row in place, a
retired one as NaN, so the rows and the seeds stay aligned for the whole
run.

Every oracle also answers ``summability(sched, horizon, regime)``: the
:class:`SummabilityReport` of its noise under the step sizes ``sched``, or
None for no noise.  :func:`papc.solver.validate_hypotheses` checks it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DimensionMismatchError
from .monotone import CocoerciveMap

__all__ = [
    "VarianceSchedule",
    "DeterministicOracle",
    "GaussianOracle",
    "MinibatchOracle",
    "SummabilityReport",
    "summability_certificate",
]

# Steps of gaussian noise drawn at once per seed: 128 * dim doubles each.
NOISE_BLOCK = 128


@dataclass(frozen=True)
class VarianceSchedule:
    """Per-coordinate noise variance sigma_n^2 as a function of n.

    Kinds: ``constant`` (sigma0_sq) and ``polynomial``
    (sigma0_sq / (n+1)^(1+epsilon), with epsilon > 0 so that it is summable).
    """

    kind: str
    sigma0_sq: float = 0.0
    epsilon: float = 1.0

    def __post_init__(self):
        if self.kind not in ("constant", "polynomial"):
            raise ValueError("unknown variance schedule kind %r" % self.kind)
        if self.sigma0_sq < 0:
            raise ValueError("sigma0_sq must be nonnegative")
        if self.kind == "polynomial" and not self.epsilon > 0:
            raise ValueError("polynomial decay needs epsilon > 0, got %r" % self.epsilon)

    def sigma_sq(self, n):
        if self.kind == "constant":
            return self.sigma0_sq
        return self.sigma0_sq / (n + 1.0) ** (1.0 + self.epsilon)

    @classmethod
    def constant(cls, sigma0_sq):
        return cls("constant", float(sigma0_sq))

    @classmethod
    def polynomial(cls, sigma0_sq, epsilon=1.0):
        return cls("polynomial", float(sigma0_sq), float(epsilon))


class DeterministicOracle:
    """Noise-free oracle: r_n = B x_n exactly."""

    is_deterministic = True

    def __init__(self, B):
        self.base = B
        self.dim = B.dim

    def sample(self, x, n):
        return self.base.apply(x)

    def summability(self, sched, horizon, regime):
        return None


class _SeededOracle:
    """The seeds of a noisy oracle: an int is one row, a sequence one seed
    per row."""

    is_deterministic = False

    def __init__(self, seeds):
        self.seeds = (int(seeds),) if np.ndim(seeds) == 0 else tuple(int(s) for s in seeds)

    def _row_seeds(self, x):
        if len(x) != len(self.seeds):
            raise DimensionMismatchError("%d rows for %d seeds" % (len(x), len(self.seeds)))
        return self.seeds


class GaussianOracle(_SeededOracle):
    """r_n = B x_n + sigma_n * z_n with z_n standard normal per coordinate.

    The per-coordinate error variance is sigma_n^2 from the schedule, so the
    full squared-norm second moment is dim * sigma_n^2.  The z_n of one seed
    are drawn NOISE_BLOCK steps at a time: block b = n // NOISE_BLOCK is a
    (NOISE_BLOCK, dim) array from ``default_rng((seed, b, 0))`` and z_n is
    its row n % NOISE_BLOCK.  The oracle keeps the block it drew last for
    every seed and redraws on a miss, so any n may be asked for in any order.
    """

    def __init__(self, B, schedule, seeds):
        super().__init__(seeds)
        self.base = B
        self.schedule = schedule
        self.dim = B.dim
        # The block of z drawn last, (NOISE_BLOCK, dim) per seed, and its b.
        self._block = np.empty((len(self.seeds), NOISE_BLOCK, self.dim))
        self._key = None

    def sample(self, x, n):
        mean = self.base.apply(x)
        s2 = self.schedule.sigma_sq(n)
        if s2 == 0.0:
            return mean
        if x.ndim > 1:
            self._row_seeds(x)  # one row per seed
        b, k = divmod(int(n), NOISE_BLOCK)
        if self._key != b:
            # The trailing 0 is part of the key of every recorded stream:
            # without it every stochastic trace would change its bits.
            for out, seed in zip(self._block, self.seeds):
                np.random.default_rng((seed, b, 0)).standard_normal(out=out)
            self._key = b
        z = self._block[:, k]
        return mean + math.sqrt(s2) * (z[0] if x.ndim == 1 else z)

    def summability(self, sched, horizon, regime):
        return summability_certificate(self.schedule, sched, horizon, regime)


class MinibatchOracle(_SeededOracle):
    """r_n = D*(c_n * (D x_n - a)): the gradient of 0.5||Dx - a||^2 over a
    random batch of its m rows.

    ``D`` is a :class:`~papc.linop.LinearMap` from R^d to R^m.  Each step
    draws ``batch`` = k of the m rows without replacement, from
    ``default_rng((seed, n, 0)).choice(m, k, replace=False)``; c_n is m/k on
    them and 0 elsewhere, so the sample is unbiased for ``base``, the full
    gradient D*(Dx - a).  A batch of m rows or more (and ``batch=None``) is
    ``base`` exactly, with no draw.  One call covers every row of an (S, d)
    array, each with its own seed's draw.
    """

    def __init__(self, D, a, beta, seeds, batch=None):
        super().__init__(seeds)
        self.D = D
        self.a = np.asarray(a, dtype=float)
        self.m = D.codomain_dim
        if self.a.shape != (self.m,):
            raise DimensionMismatchError("a has shape %r for %d rows of D"
                                         % (self.a.shape, self.m))
        self.batch = self.m if batch is None else min(int(batch), self.m)
        if self.batch < 1:
            raise ValueError("batch size %d out of range" % self.batch)
        self.dim = D.domain_dim
        self.base = CocoerciveMap(self.dim, lambda x: D.adjoint(D(x) - self.a), beta=beta,
                                  name="minibatch-mean")

    def sample(self, x, n):
        if self.batch == self.m:
            return self.base.apply(x)
        seeds = self.seeds[:1] if x.ndim == 1 else self._row_seeds(x)
        # m on the drawn rows, divided by k last: for D = I each drawn entry
        # is then m (x_i - a_i) / k, the rounding of a per-row loop.
        c = np.zeros((len(seeds), self.m))
        for row, seed in zip(c, seeds):
            # The trailing 0 keeps the recorded key, as in the gaussian
            # oracle, so every minibatch trace keeps its bits.
            idx = np.random.default_rng((seed, int(n), 0)).choice(
                self.m, size=self.batch, replace=False)
            row[idx] = self.m
        residual = self.D(x) - self.a
        return self.D.adjoint(c.reshape(residual.shape) * residual) / self.batch

    def summability(self, sched, horizon, regime):
        """A batch of k < m rows leaves variance that does not vanish: a
        violation almost surely, finite-horizon in the ergodic regime.  Its
        moments depend on the iterate, so the sums are unknown (None)."""
        if self.batch == self.m:
            status, message = "certified", "full batch of %d rows: the exact gradient" % self.m
        else:
            status = "violation" if regime == "almost-sure" else "finite-horizon"
            message = ("a batch of %d of %d rows leaves variance that does not vanish"
                       % (self.batch, self.m))
        return SummabilityReport(regime, status, int(horizon), None, None, None, None,
                                 (message,))


@dataclass(frozen=True)
class SummabilityReport:
    """Finite-horizon partial sums plus analytic tail bounds where available.

    ``status`` is one of ``certified`` (infinite-horizon summability holds
    analytically for the regime), ``finite-horizon`` (only the truncated sums
    are meaningful), or ``violation`` (the regime is not satisfiable by this
    noise and step-size pair).  Partial sums are per-coordinate, and None
    when the noise moments are unknown; multiply by the space dimension for
    squared-norm second moments.
    """

    regime: str
    status: str
    horizon: int
    partial_sigma_sq: Optional[float]
    partial_gamma_sigma_sq: Optional[float]
    tail_sigma_sq: Optional[float]
    tail_gamma_sigma_sq: Optional[float]
    messages: tuple = field(default=())

    @property
    def certified(self):
        return self.status == "certified"

    def noise_constant(self, dim):
        """c0 = sum gamma_n^2 E||r_n - B x_n||^2 of the gap bound: dim times
        the partial sum plus the tail bound if any; None when unknown."""
        if self.partial_gamma_sigma_sq is None:
            return None
        return dim * (self.partial_gamma_sigma_sq + (self.tail_gamma_sigma_sq or 0.0))


def summability_certificate(schedule, sched, horizon, regime="almost-sure"):
    """Certify the noise/step-size summability conditions over a horizon.

    ``schedule`` is a :class:`VarianceSchedule` and ``sched`` the
    :class:`papc.solver.Schedules` of the run.  For the almost-sure regime the
    noise variances themselves must be summable; for the ergodic regime only
    gamma_n^2 sigma_n^2 must be.  A constant-noise, constant-gamma pair in the
    ergodic regime is reported finite-horizon (its truncated sum is still the
    honest constant for the gap bound); constant noise in the almost-sure
    regime is a violation.
    """
    if regime not in ("almost-sure", "ergodic"):
        raise ValueError("unknown regime %r" % regime)
    horizon = int(horizon)
    s_part = gs_part = 0.0
    gamma0 = sched.gamma0
    for n in range(horizon + 1):
        s2 = schedule.sigma_sq(n)
        g = float(sched.gamma(n))
        s_part += s2
        gs_part += g * g * s2

    tail_s = tail_gs = None
    if schedule.sigma0_sq == 0.0:
        status, tail_s, tail_gs, message = "certified", 0.0, 0.0, "zero noise: all sums vanish"
    elif schedule.kind == "polynomial":
        # Integral comparison: sum_{n>N} (n+1)^{-(1+eps)} <= (N+1)^{-eps} / eps.
        eps = schedule.epsilon
        tail_s = schedule.sigma0_sq / (eps * (horizon + 1.0) ** eps)
        tail_gs = gamma0 * gamma0 * tail_s
        status, message = "certified", "polynomial decay: tail bounded by integral comparison"
    elif regime == "almost-sure":
        status = "violation"
        message = "regime violation: constant noise variance is not summable"
    elif sched.gamma_kind == "harmonic":
        # gamma_n = gamma0/(n+1): sum_{n>N} gamma_n^2 <= gamma0^2/(N+1).
        tail_gs = schedule.sigma0_sq * gamma0 * gamma0 / (horizon + 1.0)
        status, message = "certified", "constant noise with square-summable steps (p-series)"
    else:
        status = "finite-horizon"
        message = ("constant noise and non-square-summable steps: "
                   "reporting the finite-horizon sum only")
    return SummabilityReport(regime, status, horizon, s_part, gs_part, tail_s, tail_gs,
                             (message,))
