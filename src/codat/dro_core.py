"""Chi-square constrained distributionally robust optimization over class risks.

Solves the inner problem

    maximize_P  E_P[R]   subject to   chi2(P, P0) <= eta,  P on the simplex

for a discrete risk vector R over K classes.  `closed_form` derives the
closed-form maximizer, its multiplier and the deterministic equivalent
mean + sqrt(eta * variance) with its gradient from one computation of the
moments; `worst_case_distribution` adds the maximizer and its multiplier,
from the exact best response `exact_worst_case` where the closed form goes
negative.  That solver sorts the risks once and takes one square root per
candidate support, on Python floats: about 35 microseconds a call at K = 3
and at K = 10, against 33 to 43 ms for the projected ascent it replaced on
this path.

`oracle_worst_case` is an independent projected-gradient-ascent solver,
kept to check both in tests and in `codat oracle`.  It and the simplex
projection run on Python floats.  For the class counts this package trains
on (K <= 12) one ascent step is a few dozen operations on K-element
vectors, where numpy's per-call overhead outweighs the arithmetic; Python
floats round exactly as numpy's elementwise operations do, so the results
are bit-identical.  The divergence's sum is taken on Python floats too, in
the order of numpy's pairwise summation (`_pairwise_sum`), so it equals
`np.add.reduce` bit for bit.  numpy keeps only the dot product for the
objective: at these sizes OpenBLAS's ddot rounds as a chain of fused
multiply-adds, which Python floats cannot reproduce without `math.fma`
(Python 3.13).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# Variance below this guard is treated as exactly zero: the risk vector is
# constant, every feasible distribution attains the same objective, and the
# center p0 is returned as the canonical maximizer.
ZERO_VARIANCE_GUARD = 1e-12

# Feasibility tolerance for the oracle's alternating projection.
_FEASIBILITY_TOL = 1e-9

# Projected ascent runs at most this many steps, starting at this step size.
_ORACLE_ITERATIONS = 5000
_ORACLE_STEP = 0.01


def _as_readonly(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64).copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class ProbabilityDistribution:
    """Discrete distribution over K >= 2 classes; entries >= 0, summing to 1."""

    weights: np.ndarray

    def __post_init__(self):
        arr = _as_readonly(self.weights)
        if arr.ndim != 1 or arr.size < 2:
            raise ValueError(f"distribution needs at least 2 classes, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("distribution weights must be finite")
        if np.min(arr) < 0.0:
            raise ValueError(f"negative weight {np.min(arr)} in distribution")
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
        arr = _as_readonly(self.risks)
        if arr.ndim != 1 or arr.size < 2:
            raise ValueError(f"risk vector needs at least 2 classes, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("risk entries must be finite")
        if np.min(arr) < 0.0:
            raise ValueError(f"negative risk {np.min(arr)}")
        object.__setattr__(self, "risks", arr)

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
    """

    p0: ProbabilityDistribution
    eta: float

    def __post_init__(self):
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


def _pairwise_sum(terms: list[float]) -> float:
    # The sum np.add.reduce returns for a contiguous float64 array, in the
    # order of numpy's pairwise_sum: sequential from 0.0 below 8 terms; up to
    # 128 terms, eight running sums over the longest multiple-of-8 prefix,
    # combined as a tree, then the rest added in turn; above 128, the sums of
    # two halves, split at a multiple of 8.
    n = len(terms)
    if n < 8:
        total = 0.0
        for term in terms:
            total += term
        return total
    if n <= 128:
        body = n - n % 8
        r = terms[:8]
        for start in range(8, body, 8):
            r = [a + b for a, b in zip(r, terms[start : start + 8])]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for term in terms[body:]:
            total += term
        return total
    half = n // 2
    half -= half % 8
    return _pairwise_sum(terms[:half]) + _pairwise_sum(terms[half:])


def _chi2_float(p: list[float], p0: list[float]) -> float:
    # Fast float path for the oracle's inner loop, where residuals are only
    # required to close within _FEASIBILITY_TOL.  The terms are formed and
    # summed on Python floats, in numpy's order, so the result is the one
    # np.add.reduce gives bit for bit without its per-call cost.  The
    # objective stays on numpy's dot: its ddot rounds as fused multiply-adds.
    return _pairwise_sum([(x - c) * (x - c) / c for x, c in zip(p, p0)])


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

    The center for constant risks or a zero radius, the closed form where it
    is valid, and otherwise the exact best response of `exact_worst_case`.
    """
    form = closed_form(risks, cfg)
    if form.degenerate or cfg.eta == 0.0:
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


def simplex_project(v) -> ProbabilityDistribution:
    """Euclidean projection onto the probability simplex (sort and threshold).

    Finite input fails only where float64 rounding loses unit mass (entries
    from about 2**53 in magnitude); it is rejected with its largest magnitude.
    """
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError(f"need a 1-d vector of length >= 2, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("cannot project a non-finite vector")
    try:
        return ProbabilityDistribution(_simplex_project_raw(arr.tolist()))
    except ValueError:
        raise ValueError(
            f"cannot project onto the simplex: largest magnitude {float(np.max(np.abs(arr)))} "
            "is too large for float64 to resolve unit mass"
        ) from None


def _simplex_project_raw(values: list[float]) -> list[float]:
    # Sort and threshold on Python floats.  The descending sort and the
    # running sum are sequential, as np.sort and np.cumsum are; theta comes
    # from the last index whose test holds; a float index divides exactly as
    # the integer would.  A float difference is positive exactly when
    # x > theta, so the clip gives np.maximum(x - theta, 0.0), which maps
    # -0.0 to 0.0.
    theta = 0.0
    cumulative = 0.0
    index = 0.0
    for u in sorted(values, reverse=True):
        index += 1.0
        cumulative += u
        if u + (1.0 - cumulative) / index > 0:
            theta = (cumulative - 1.0) / index
    return [x - theta if x > theta else 0.0 for x in values]


def _project_ambiguity(point: list[float], p0: list[float], eta: float) -> list[float]:
    # Alternate simplex projection with radial scaling toward the center until
    # both the simplex and the ball constraint hold within _FEASIBILITY_TOL.
    q = _simplex_project_raw(point)
    for _ in range(200):
        divergence = _chi2_float(q, p0)
        if divergence <= eta + _FEASIBILITY_TOL:
            return q
        scale = math.sqrt(eta / divergence)
        q = _simplex_project_raw([c + scale * (x - c) for x, c in zip(q, p0)])
    raise RuntimeError(
        f"feasibility repair did not converge: residual {divergence - eta:.3e} after 200 rounds"
    )


def oracle_worst_case(
    risks: ClassRiskVector, cfg: AmbiguityConfig
) -> tuple[ProbabilityDistribution, float]:
    """Projected gradient ascent on E_P[R] over the chi-square ball.

    Independent numeric check of `worst_case_distribution`, which never
    calls it.  Ascent takes at most _ORACLE_ITERATIONS steps from step size
    _ORACLE_STEP; once iterates stop improving the step anneals by 0.3 and
    ascent resumes from the best feasible point, because a fixed step stalls
    at O(step) error whenever the optimum has entries near the simplex
    boundary.  It can still stop short inside the ball when the top risks
    nearly tie.  Iterates are lists of Python floats (see the module
    docstring); the objective is the risk array's `dot`, which is `np.dot`
    without the module-level dispatch.
    """
    _check_paired(cfg.p0, risks)
    if cfg.eta == 0.0:
        return cfg.p0, float(np.dot(cfg.p0.weights, risks.risks))
    p0, r = cfg.p0.weights.tolist(), risks.risks.tolist()
    objective_of = risks.risks.dot
    step = _ORACLE_STEP
    current = _project_ambiguity(p0, p0, cfg.eta)
    best = current
    best_objective = float(objective_of(current))
    stall = 0
    for _ in range(_ORACLE_ITERATIONS):
        candidate = _project_ambiguity([c + step * x for c, x in zip(current, r)], p0, cfg.eta)
        objective = float(objective_of(candidate))
        if objective > best_objective + 1e-15:
            best_objective = objective
            best = candidate
            stall = 0
        else:
            stall += 1
        if stall >= 20 or candidate == current:
            step *= 0.3
            stall = 0
            if step < 1e-9:
                break
            current = best
        else:
            current = candidate
    return ProbabilityDistribution(best), best_objective
