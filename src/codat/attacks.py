"""L-infinity projected gradient descent attack with exact feasibility.

The attack maximizes per-example cross-entropy inside the intersection of
the epsilon ball around each input and the [0, 1] feature box.  Outputs
satisfy max|x' - x| <= epsilon and x' in [0, 1] exactly as measured in
float64, not merely within a tolerance: after the two-stage clamp, any
coordinate pushed one ulp outside the ball by the rebuild rounding is
nudged back toward its anchor.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .nn_engine import LabeledBatch, ModelParams, backward

_REPAIR_ROUNDS = 64


@dataclass(frozen=True)
class AttackConfig:
    """PGD settings: ball radius, step size, step count, random start.

    `epsilon == 0` is allowed and turns the attack into the identity,
    which the trainers use as the natural-training limit.
    """

    epsilon: float
    step_size: float
    steps: int
    random_start: bool = True

    def __post_init__(self):
        if not math.isfinite(self.epsilon) or not 0.0 <= self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in [0, 1), got {self.epsilon}")
        if self.steps < 1:
            raise ValueError(f"need at least one step, got {self.steps}")
        if self.epsilon > 0.0:
            if self.step_size <= 0.0:
                raise ValueError(f"step size must be positive, got {self.step_size}")
            if self.step_size > 2.0 * self.epsilon:
                raise ValueError(
                    f"step size {self.step_size} exceeds the ball diameter "
                    f"{2.0 * self.epsilon}; the first step would exit immediately"
                )

    def as_dict(self) -> dict:
        """The four settings by field name, as recorded in reports and fingerprints."""
        return asdict(self)


def project_linf(candidate: np.ndarray, anchor: np.ndarray, epsilon: float) -> np.ndarray:
    """Clamp entrywise to [anchor - epsilon, anchor + epsilon], then to [0, 1]."""
    candidate = np.asarray(candidate, dtype=np.float64)
    anchor = np.asarray(anchor, dtype=np.float64)
    if candidate.shape != anchor.shape:
        raise ValueError(f"shape mismatch: candidate {candidate.shape} vs anchor {anchor.shape}")
    clipped = np.clip(candidate, anchor - epsilon, anchor + epsilon)
    return np.clip(clipped, 0.0, 1.0)


def _repair_ball(perturbed: np.ndarray, anchor: np.ndarray, epsilon: float) -> np.ndarray:
    # fl(anchor +- delta) can land one ulp outside the ball; walk those
    # coordinates back toward the anchor until the measured distance fits
    for _ in range(_REPAIR_ROUNDS):
        outside = np.abs(perturbed - anchor) > epsilon
        if not np.any(outside):
            return perturbed
        perturbed[outside] = np.nextafter(perturbed[outside], anchor[outside])
    # unreachable in practice; the anchor itself is always feasible
    still_outside = np.abs(perturbed - anchor) > epsilon
    perturbed[still_outside] = anchor[still_outside]
    return perturbed


def _project_exact(candidate: np.ndarray, anchor: np.ndarray, epsilon: float) -> np.ndarray:
    projected = project_linf(candidate, anchor, epsilon)
    return _repair_ball(projected, anchor, epsilon)


def pgd_attack(
    model: ModelParams, batch: LabeledBatch, cfg: AttackConfig, seed
) -> np.ndarray:
    """Iterated sign-gradient ascent on cross-entropy inside the epsilon ball.

    The gradient is taken on the plain unweighted per-example loss; the
    returned array has the same shape as `batch.features` and is exactly
    feasible.  Fixed seeds give identical perturbations.
    """
    anchor = batch.features
    if anchor.shape[1] != model.input_dim:
        raise ValueError(
            f"feature dim {anchor.shape[1]} does not match model input {model.input_dim}"
        )
    if cfg.epsilon == 0.0:
        return anchor.copy()
    rng = np.random.default_rng(seed)
    if cfg.random_start:
        start = anchor + rng.uniform(-cfg.epsilon, cfg.epsilon, size=anchor.shape)
        perturbed = _project_exact(start, anchor, cfg.epsilon)
    else:
        perturbed = anchor.copy()
    ones = np.ones(batch.size)
    for step in range(cfg.steps):
        _, input_grads = backward(
            model, LabeledBatch(perturbed, batch.labels), ones
        )
        if not np.all(np.isfinite(input_grads)):
            raise RuntimeError(
                f"non-finite input gradient at attack step {step}; "
                "the model has diverged and the attack cannot continue"
            )
        candidate = perturbed + cfg.step_size * np.sign(input_grads)
        perturbed = _project_exact(candidate, anchor, cfg.epsilon)
    return perturbed
