"""Stochastic oracles for the cocoercive operator: unbiased noise models,
variance schedules, and summability certificates.

Every oracle answers ``sample(x, n, t=0)``, and its noise is a fixed
function of (seed, n, t): the same key gives the same bits, whatever was
asked before.  The gaussian oracle draws its standard normals in blocks of
NOISE_BLOCK steps, block n // NOISE_BLOCK from an RNG keyed by
(seed, n // NOISE_BLOCK, t); the minibatch oracle draws each step's batch
from an RNG keyed by (seed, n, t).  Either way the noise at step n is
independent of x_n, which depends only on the noise of steps before n, so
given the history the sample is unbiased with the scheduled variance.  A run
draws t = 0; other t give independent replicates at the same step.

A noisy oracle holds a tuple of seeds, one per row: ``x`` may be a vector
(drawn with the first seed) or an (S, d) array whose row i is drawn with
``seeds[i]``, so the rows never mix and each is bitwise the sample a
one-seed oracle gives for that row.  A run keeps every row in place, a
retired one as NaN, so the rows and the seeds stay aligned for the whole
run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DimensionMismatchError

__all__ = [
    "VarianceSchedule",
    "DeterministicOracle",
    "GaussianOracle",
    "MinibatchOracle",
    "SummabilityReport",
    "summability_certificate",
    "empirical_variance",
]

# Steps of gaussian noise drawn at once per seed: 128 * dim doubles each.
NOISE_BLOCK = 128


@dataclass(frozen=True)
class VarianceSchedule:
    """Per-coordinate noise variance sigma_n^2 as a function of n.

    Kinds: ``constant`` (sigma0_sq), ``polynomial`` (sigma0_sq / (n+1)^(1+epsilon)),
    ``table`` (explicit values, clamped at the last entry).  The intended
    regime records which summability condition the schedule is meant to
    satisfy: ``almost-sure`` needs sum sigma_n^2 < inf, ``ergodic`` needs
    sum gamma_n^2 sigma_n^2 < inf for the paired step sizes.
    """

    kind: str
    sigma0_sq: float = 0.0
    epsilon: float = 1.0
    table: Optional[tuple] = None
    intended_regime: str = "almost-sure"

    def __post_init__(self):
        if self.kind not in ("constant", "polynomial", "table"):
            raise ValueError("unknown variance schedule kind %r" % self.kind)
        if self.kind == "table" and not self.table:
            raise ValueError("table schedule needs values")
        if self.sigma0_sq < 0:
            raise ValueError("sigma0_sq must be nonnegative")
        if self.intended_regime not in ("almost-sure", "ergodic"):
            raise ValueError("unknown regime %r" % self.intended_regime)

    def sigma_sq(self, n):
        if self.kind == "constant":
            return self.sigma0_sq
        if self.kind == "polynomial":
            return self.sigma0_sq / (n + 1.0) ** (1.0 + self.epsilon)
        t = self.table
        return float(t[n]) if n < len(t) else float(t[-1])

    @classmethod
    def constant(cls, sigma0_sq, regime="ergodic"):
        return cls("constant", float(sigma0_sq), intended_regime=regime)

    @classmethod
    def polynomial(cls, sigma0_sq, epsilon=1.0, regime="almost-sure"):
        return cls("polynomial", float(sigma0_sq), float(epsilon), intended_regime=regime)

    @classmethod
    def from_table(cls, values, regime="ergodic"):
        return cls("table", table=tuple(float(v) for v in values), intended_regime=regime)


class DeterministicOracle:
    """Noise-free oracle: r_n = B x_n exactly."""

    is_deterministic = True

    def __init__(self, B):
        self.base = B
        self.dim = B.dim

    def sample(self, x, n, t=0):
        return self.base.apply(x)


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
    (NOISE_BLOCK, dim) array from ``default_rng((seed, b, t))`` and z_n is
    its row n % NOISE_BLOCK.  The oracle keeps the block it drew last for
    every seed and redraws on a miss, so any n may be asked for in any order.
    """

    def __init__(self, B, schedule, seeds):
        super().__init__(seeds)
        self.base = B
        self.schedule = schedule
        self.dim = B.dim
        # The block of z drawn last, (NOISE_BLOCK, dim) per seed, and its (b, t).
        self._block = np.empty((len(self.seeds), NOISE_BLOCK, self.dim))
        self._key = None

    def sample(self, x, n, t=0):
        mean = self.base.apply(x)
        s2 = self.schedule.sigma_sq(n)
        if s2 == 0.0:
            return mean
        if x.ndim > 1:
            self._row_seeds(x)  # one row per seed
        b, k = divmod(int(n), NOISE_BLOCK)
        key = (b, int(t))
        if self._key != key:
            for out, seed in zip(self._block, self.seeds):
                np.random.default_rng((seed,) + key).standard_normal(out=out)
            self._key = key
        z = self._block[:, k]
        return mean + math.sqrt(s2) * (z[0] if x.ndim == 1 else z)


class MinibatchOracle(_SeededOracle):
    """r_n = mean over a random batch of component maps whose average is B.

    Components are sampled without replacement; a batch covering all
    components reproduces B exactly.  The components take one vector, so an
    (S, d) array is sampled row by row.
    """

    def __init__(self, components, beta, seeds, batch_schedule=None, dim=None):
        from .monotone import CocoerciveMap

        self.components = list(components)
        if not self.components:
            raise ValueError("need at least one component")
        m = len(self.components)
        if dim is None:
            raise ValueError("dim is required")
        super().__init__(seeds)
        self.dim = int(dim)
        self.m = m
        self.batch_schedule = batch_schedule or (lambda n: m)

        def mean_apply(x):
            acc = np.zeros(self.dim)
            for c in self.components:
                acc += c(x)
            return acc / m

        self.base = CocoerciveMap(self.dim, mean_apply, beta=beta, name="minibatch-mean")

    def sample(self, x, n, t=0):
        k = int(self.batch_schedule(n))
        if not 1 <= k <= self.m:
            raise ValueError("batch size %d out of range" % k)
        if x.ndim == 1:
            return self._sample_row(x, n, t, k, self.seeds[0])
        return np.stack([self._sample_row(row, n, t, k, seed)
                         for row, seed in zip(x, self._row_seeds(x))])

    def _sample_row(self, x, n, t, k, seed):
        if k == self.m:
            return self.base.apply(x)
        rng = np.random.default_rng((seed, int(n), int(t)))
        idx = rng.choice(self.m, size=k, replace=False)
        acc = np.zeros(self.dim)
        for i in idx:
            acc += self.components[i](x)
        return acc / k


def empirical_variance(oracle, x, n, trials):
    """Unbiased sample variance of the error components of r_n - B x_n.

    All error coordinates across trials are pooled; for the gaussian model
    this estimates the scheduled per-coordinate sigma_n^2.
    """
    trials = int(trials)
    if trials < 2:
        raise ValueError("need at least 2 trials")
    mean = oracle.base.apply(x)
    errs = np.empty((trials, oracle.dim))
    for t in range(trials):
        errs[t] = oracle.sample(x, n, t) - mean
    return float(np.var(errs.ravel(), ddof=1))


@dataclass(frozen=True)
class SummabilityReport:
    """Finite-horizon partial sums plus analytic tail bounds where available.

    ``status`` is one of ``certified`` (infinite-horizon summability holds
    analytically for the declared regime), ``finite-horizon`` (only the
    truncated sums are meaningful), or ``violation`` (the declared regime is
    not satisfiable by this schedule pair).  Partial sums are per-coordinate;
    multiply by the space dimension for squared-norm second moments.
    """

    regime: str
    status: str
    horizon: int
    partial_sigma_sq: float
    partial_gamma_sigma_sq: float
    tail_sigma_sq: Optional[float]
    tail_gamma_sigma_sq: Optional[float]
    messages: tuple = field(default=())

    @property
    def certified(self):
        return self.status == "certified"


def summability_certificate(schedule, gammas, horizon):
    """Certify the noise/step-size summability conditions over a horizon.

    For the almost-sure regime the noise variances themselves must be
    summable; for the ergodic regime only gamma_n^2 sigma_n^2 must be.  A
    constant-noise, constant-gamma pair in the ergodic regime is reported
    finite-horizon (its truncated sum is still the honest constant for the
    gap bound); constant noise in the almost-sure regime is a violation.
    """
    horizon = int(horizon)
    gamma = gammas.gamma if hasattr(gammas, "gamma") else gammas
    gamma_kind = getattr(gammas, "gamma_kind", "custom")

    s_part = 0.0
    gs_part = 0.0
    gamma0 = float(gamma(0))
    for n in range(horizon + 1):
        s2 = schedule.sigma_sq(n)
        g = float(gamma(n))
        s_part += s2
        gs_part += g * g * s2

    messages = []
    tail_s = None
    tail_gs = None

    zero_noise = schedule.sigma0_sq == 0.0 if schedule.kind != "table" else all(
        v == 0.0 for v in schedule.table)

    if zero_noise:
        status = "certified"
        tail_s = 0.0
        tail_gs = 0.0
        messages.append("zero noise: all sums vanish")
    elif schedule.kind == "polynomial" and schedule.epsilon > 0:
        # Integral comparison: sum_{n>N} (n+1)^{-(1+eps)} <= (N+1)^{-eps} / eps.
        eps = schedule.epsilon
        tail_s = schedule.sigma0_sq / (eps * (horizon + 1.0) ** eps)
        tail_gs = gamma0 * gamma0 * tail_s
        status = "certified"
        messages.append("polynomial decay: tail bounded by integral comparison")
    elif schedule.kind == "constant":
        if schedule.intended_regime == "almost-sure":
            status = "violation"
            messages.append("regime violation: constant noise variance is not summable")
        elif gamma_kind == "harmonic":
            # gamma_n = gamma0/(n+1): sum_{n>N} gamma_n^2 <= gamma0^2/(N+1).
            tail_gs = schedule.sigma0_sq * gamma0 * gamma0 / (horizon + 1.0)
            status = "certified"
            messages.append("constant noise with square-summable steps (p-series)")
        else:
            status = "finite-horizon"
            messages.append("constant noise and non-square-summable steps: "
                            "reporting the finite-horizon sum only")
    else:
        status = "finite-horizon"
        messages.append("table schedule: no analytic tail; finite-horizon sums only")

    return SummabilityReport(
        regime=schedule.intended_regime,
        status=status,
        horizon=horizon,
        partial_sigma_sq=s_part,
        partial_gamma_sigma_sq=gs_part,
        tail_sigma_sq=tail_s,
        tail_gamma_sigma_sq=tail_gs,
        messages=tuple(messages),
    )
