"""Chi-square constrained distributionally robust optimization over class risks.

Solves the inner problem

    maximize_P  E_P[R]   subject to   chi2(P, P0) <= eta,  P on the simplex

for a discrete risk vector R over K classes.  `closed_form` derives the
closed-form maximizer, its multiplier and the deterministic equivalent
mean + sqrt(eta * variance) with its gradient from one computation of the
moments; `worst_case_distribution` adds the maximizer and its multiplier,
from the exact best response `exact_worst_case` where the closed form goes
negative.  That solver sorts the risks once and takes one square root per
candidate support, on Python floats: 35 microseconds a call at K = 3 or 10.

`oracle_worst_case` solves the same problem through its dual, calling
neither solver; it is kept to check both, in tests and in `codat oracle`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# Variance below this guard is treated as exactly zero: the risk vector is
# constant, every feasible distribution attains the same objective, and the
# center p0 is returned as the canonical maximizer.
ZERO_VARIANCE_GUARD = 1e-12


def _class_vector(values, what: str) -> np.ndarray:
    """A read-only copy of `values`: finite, nonnegative, one entry per class, K >= 2."""
    arr = np.asarray(values, dtype=np.float64).copy()
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError(f"{what} needs at least 2 classes, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} entries must be finite")
    if np.min(arr) < 0.0:
        raise ValueError(f"negative entry {np.min(arr)} in {what}")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class ProbabilityDistribution:
    """Discrete distribution over K >= 2 classes; entries >= 0, summing to 1."""

    weights: np.ndarray

    def __post_init__(self):
        arr = _class_vector(self.weights, "distribution")
        total = float(np.sum(arr))
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"distribution weights sum to {total}, expected 1 within 1e-9")
        object.__setattr__(self, "weights", arr)

    @property
    def size(self) -> int:
        return int(self.weights.size)


def uniform_distribution(num_classes: int) -> ProbabilityDistribution:
    """The uniform distribution over `num_classes` classes."""
    return ProbabilityDistribution(np.full(num_classes, 1.0 / num_classes))


@dataclass(frozen=True)
class ClassRiskVector:
    """Per-class risk values (e.g. average adversarial cross-entropy in nats)."""

    risks: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "risks", _class_vector(self.risks, "risk vector"))

    @property
    def size(self) -> int:
        return int(self.risks.size)


@dataclass(frozen=True)
class AmbiguityConfig:
    """Chi-square ball around a center distribution.

    `eta` must stay strictly below K - 1, the divergence of a Dirac point
    from the uniform center; at or beyond that radius the ball contains
    degenerate one-class distributions and the worst case collapses onto the
    single hardest class.  `eta == 0` is allowed and collapses the ball to
    the center itself, which downstream code uses as the plain-average limit.
    The center may give a class zero mass, and then so does every feasible
    point; the codat step clamps eta below its present classes less one.
    """

    p0: ProbabilityDistribution
    eta: float

    def __post_init__(self):
        # a bool is an int, and float() would also read a numeric string
        if isinstance(self.eta, bool) or not isinstance(self.eta, numbers.Real):
            raise ValueError(f"eta: expected a real number, got {self.eta!r}")
        eta = float(self.eta)
        if not math.isfinite(eta) or eta < 0.0:
            raise ValueError(f"ambiguity radius must be finite and >= 0, got {eta}")
        bound = self.p0.size - 1
        if eta >= bound:
            raise ValueError(
                f"ambiguity radius {eta} must be < K - 1 = {bound}; "
                "larger balls contain one-class distributions"
            )
        object.__setattr__(self, "eta", eta)


@dataclass(frozen=True)
class ClosedForm:
    """The closed form at (risks, cfg), from one computation of the moments.

    `objective` is the deterministic equivalent mean + sqrt(eta * variance)
    and `gradient` its gradient in the risks, which the trainer routes over
    the per-class risk gradients: the closed-form worst case, or p0 for
    constant risks (`degenerate`).  Where the closed form fails, entries go
    negative; it is still the gradient there, but not a distribution.
    `valid` means the gradient is the worst case: the risks are not constant
    and no entry is negative.  `multiplier` is alpha*, 0.0 where undefined
    (constant risks, zero radius); where valid, p0 * (1 + (r - mean) /
    (2 alpha*)) rebuilds the maximizer.
    """

    mean: float
    objective: float
    gradient: np.ndarray
    multiplier: float
    degenerate: bool
    valid: bool


@dataclass(frozen=True)
class WorstCaseSolution:
    """The maximizer, its objective and multiplier, and the closed form at its risks.

    `multiplier` is alpha for `distribution`, the multiplier of the ball
    constraint in the problem actually solved: the closed form's where that
    form is valid (0.0 for constant risks or a zero radius), (B - tA) / 2
    from `exact_worst_case` where it is not, and 0.0 where the ball is
    slack.  Wherever the ball binds, p_i = p0_i (r_i - t)_+ / (2 alpha) for
    one threshold t.  Where the closed form is invalid, `closed_form` is
    still that unconstrained candidate, whose gradient the trainer routes;
    its multiplier is not `distribution`'s.
    """

    distribution: ProbabilityDistribution
    objective_value: float
    multiplier: float
    closed_form: ClosedForm


def _check_paired(p0: ProbabilityDistribution, risks: ClassRiskVector) -> None:
    if p0.size != risks.size:
        raise ValueError(f"dimension mismatch: distribution K={p0.size}, risks K={risks.size}")


def chi_square_divergence(p: ProbabilityDistribution, p0: ProbabilityDistribution) -> float:
    """Discrete chi-square divergence sum((p - p0)^2 / p0).

    Evaluated in exact rational arithmetic after normalizing both inputs to
    exact unit mass, then rounded once to float.  Float-rounded weights such
    as fl(1/K) carry a representation error that a direct float sum inflates
    quadratically; normalizing first makes clean cases (Dirac versus uniform,
    identical inputs) come out exact.
    """
    if p.size != p0.size:
        raise ValueError(f"dimension mismatch: {p.size} vs {p0.size}")
    ps = [Fraction(x) for x in p.weights.tolist()]
    qs = [Fraction(x) for x in p0.weights.tolist()]
    p_mass, q_mass = sum(ps), sum(qs)
    total = Fraction(0)
    for idx, (pi, qi) in enumerate(zip(ps, qs)):
        p_hat, q_hat = pi / p_mass, qi / q_mass
        if q_hat == 0:
            if p_hat != 0:
                raise ValueError(
                    f"absolute continuity violated: p[{idx}] > 0 where p0[{idx}] = 0"
                )
            continue
        diff = p_hat - q_hat
        total += diff * diff / q_hat
    return float(total)


def mean_variance_under(p0: ProbabilityDistribution, risks: ClassRiskVector) -> tuple[float, float]:
    """Mean and variance of the risk vector under `p0`, variance clamped at 0."""
    _check_paired(p0, risks)
    w, r = p0.weights, risks.risks
    mean = float(np.dot(w, r))
    variance = float(np.dot(w, r * r) - mean * mean)
    return mean, max(variance, 0.0)


def closed_form(risks: ClassRiskVector, cfg: AmbiguityConfig) -> ClosedForm:
    """Every closed-form quantity at (risks, cfg), from one pass over the moments."""
    mean, variance = mean_variance_under(cfg.p0, risks)
    w, r = cfg.p0.weights, risks.risks
    degenerate = variance < ZERO_VARIANCE_GUARD
    gradient = w.copy() if degenerate else w + w * math.sqrt(cfg.eta / variance) * (r - mean)
    objective = mean + math.sqrt(cfg.eta * variance)
    multiplier = 0.0 if degenerate or cfg.eta == 0.0 else 0.5 * math.sqrt(variance / cfg.eta)
    valid = not degenerate and bool(np.min(gradient) >= 0.0)
    return ClosedForm(mean, objective, gradient, multiplier, degenerate, valid)


def worst_case_distribution(risks: ClassRiskVector, cfg: AmbiguityConfig) -> WorstCaseSolution:
    """Maximizer of E_P[R] over the chi-square ball intersected with the simplex.

    The center for constant risks, the closed form where it is valid (the
    center itself at zero radius), else the exact best response of `exact_worst_case`.
    """
    form = closed_form(risks, cfg)
    if form.degenerate:
        return WorstCaseSolution(cfg.p0, form.mean, form.multiplier, form)
    if form.valid:
        return WorstCaseSolution(
            ProbabilityDistribution(form.gradient), form.objective, form.multiplier, form
        )
    return WorstCaseSolution(*exact_worst_case(risks, cfg), form)


def exact_worst_case(
    risks: ClassRiskVector, cfg: AmbiguityConfig
) -> tuple[ProbabilityDistribution, float, float]:
    """The exact maximizer over the chi-square ball, its objective and its multiplier.

    The maximizer is p_i = p0_i (r_i - t)_+ / (B - tA) (Namkoong & Duchi,
    NeurIPS 2016), where A, B and C are the sums of p0, p0 r and p0 r^2
    over its support, the classes with r_i > t.  With the risks in
    descending order, the support is the top k classes whose root of
    C - 2tB + t^2 A = (1 + eta)(B - tA)^2 lies in [r_(k+1), r_(k)); the
    divergence of p(t) grows with t, so the first k from the top whose
    root clears r_(k+1) is the support, and the last k always holds.  The
    root is t = m - sqrt(V / ((1 + eta) A - 1)), with m and V the mean and
    variance of the top k under p0 / A.  The multiplier is (B - tA) / 2.
    When p0 restricted to the tied top classes is already in the ball,
    the ball is slack: that point is the answer, with multiplier 0.

    Runs on Python floats, in coordinates shifted to the top risk, with
    m and V accumulated by weighted Welford updates: near ties then keep
    their relative precision, where the quadratic formula in the raw risks
    would lose it (its t carries an error of one ulp of the risks, and the
    weights of 1e-12-apart risks are differences of that size).
    """
    _check_paired(cfg.p0, risks)
    p0, r = cfg.p0.weights.tolist(), risks.risks.tolist()
    # classes outside p0's support keep weight 0 in every feasible point
    order = sorted((i for i in range(len(r)) if p0[i] > 0.0), key=lambda i: -r[i])
    top = r[order[0]]
    shifted = [r[i] - top for i in order]
    mass = mean = spread = 0.0
    for k, x in enumerate(shifted):
        w = p0[order[k]]
        mass += w
        delta = x - mean
        mean += w * delta / mass
        spread += w * delta * (x - mean)
        last = k + 1 == len(order)
        if not last and shifted[k + 1] == x:
            continue  # inside a tie: the bracket [r_(k+1), r_(k)) is empty
        excess = (1.0 + cfg.eta) * mass - 1.0
        if excess <= 0.0:
            if not last:
                continue  # p0 on the top k lies outside the ball: the root is lower
            # a radius lost to rounding in (1 + eta) leaves only the center
            return cfg.p0, float(risks.risks.dot(cfg.p0.weights)), 0.0
        if spread == 0.0:
            # the tied top classes, with p0 on them inside the ball: the ball
            # is slack, and any threshold below them gives that point
            threshold, multiplier = -1.0, 0.0
            break
        gap = math.sqrt(spread / mass / excess)
        threshold, multiplier = mean - gap, 0.5 * mass * gap
        if last or threshold >= shifted[k + 1]:
            break
    weights = [0.0] * len(r)
    for i, x in zip(order[: k + 1], shifted):
        if x > threshold:
            weights[i] = p0[i] * (x - threshold)
    total = sum(weights)
    dist = ProbabilityDistribution([v / total for v in weights])
    return dist, float(risks.risks.dot(dist.weights)), multiplier


def oracle_worst_case(
    risks: ClassRiskVector, cfg: AmbiguityConfig
) -> tuple[ProbabilityDistribution, float]:
    """The maximizer over the chi-square ball and its objective, from the dual.

    Checks `closed_form` and `exact_worst_case` without calling either.  The
    Cressie-Read k = 2 dual (Duchi & Namkoong, Annals of Statistics 2021) is
    max_P E_P[R] = min_t t + sqrt(1 + eta) sqrt(E_p0[(R - t)_+^2]), and its
    minimizing t gives the maximizer p0 (R - t)_+ / E_p0[(R - t)_+].  The
    slope is negative exactly where that point lies strictly inside the ball:
    bisection between the closed form's threshold mean - sqrt(variance / eta)
    and the top risk keeps that feasible end until no float lies between the
    two.  If p0 on the tied top classes is in the ball, the ball is slack and
    that point is the answer.  Python floats shifted to the top risk keep
    near ties' relative precision.
    """
    _check_paired(cfg.p0, risks)
    w, r = cfg.p0.weights.tolist(), risks.risks.tolist()
    top = max(v for v, c in zip(r, w) if c > 0.0)
    x = [v - top for v in r]
    if cfg.eta == 0.0 or all(v == 0.0 for v, c in zip(x, w) if c > 0.0):
        return cfg.p0, float(np.dot(cfg.p0.weights, risks.risks))
    if (1.0 + cfg.eta) * sum(c for c, v in zip(w, x) if v == 0.0) >= 1.0:
        lo = 0.5 * max(v for v in x if v < 0.0)  # any threshold between the top two risks
    else:
        mean = sum(c * v for c, v in zip(w, x))
        variance = sum(c * (v - mean) * (v - mean) for c, v in zip(w, x))
        # just below the closed form's threshold, which is at most 0; two
        # square roots, so that a tiny radius does not overflow
        lo, hi = (mean - math.sqrt(variance) / math.sqrt(cfg.eta)) * (1.0 + 1e-9) - 1e-9, 0.0
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            # the slope is negative where eta E[X]^2 > Var X for X = (x - mid)_+
            # under p0; the centred variance keeps tiny radii precise
            tail = [v - mid if v > mid else 0.0 for v in x]
            first = sum(c * d for c, d in zip(w, tail))
            if cfg.eta * first * first > sum(c * (d - first) ** 2 for c, d in zip(w, tail)):
                lo = mid
            else:
                hi = mid
    weights = [c * (v - lo) if v > lo else 0.0 for c, v in zip(w, x)]
    dist = ProbabilityDistribution(np.divide(weights, sum(weights)))
    return dist, float(risks.risks.dot(dist.weights))
