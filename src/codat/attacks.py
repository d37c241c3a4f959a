"""L-infinity projected gradient descent attack with exact feasibility.

The attack maximizes per-example cross-entropy inside the intersection of
the epsilon ball around each input and the [0, 1] feature box.  Outputs
satisfy max|x' - x| <= epsilon and x' in [0, 1] exactly as measured in
float64, not merely within a tolerance: each attack builds every
coordinate's exact feasible interval once (`feasible_box`), and the random
start and every step are one clip into it.  Each attack also allocates one
set of `nn_engine` walk buffers (`walk_buffers`) and owns it: each step
walks it with `forward` and sweeps it with `backward`, so the steps allocate
no layer-sized arrays.  The returned rows never alias that set.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .data import LabeledBatch, check_int, check_real
from .nn_engine import ModelParams, backward, forward, walk_buffers


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
        check_real("epsilon", self.epsilon)
        check_real("step_size", self.step_size)
        if not math.isfinite(self.epsilon) or not 0.0 <= self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in [0, 1), got {self.epsilon}")
        if not math.isfinite(self.step_size):
            raise ValueError(f"step size must be finite, got {self.step_size}")
        object.__setattr__(self, "steps", check_int("steps", self.steps))
        if self.steps < 1:
            raise ValueError(f"need at least one step, got {self.steps}")
        if type(self.random_start) is not bool:
            raise ValueError(f"random_start must be a bool, got {self.random_start!r}")
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


def _repair_ball(bound: np.ndarray, anchor: np.ndarray, epsilon: float) -> np.ndarray:
    # fl(anchor +- epsilon) lies at most half a spacing outside the ball, so one
    # ulp toward the anchor suffices: |bound - anchor| then rounds to <= epsilon
    outside = np.abs(bound - anchor) > epsilon
    return np.where(outside, np.nextafter(bound, anchor), bound)


def feasible_box(anchor: np.ndarray, epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """Bounds (lo, hi) for anchors in [0, 1]; every value between them is feasible.

    Each bound is fl(anchor -+ epsilon) walked back into the ball by at most
    one ulp, then cut to [0, 1].  fl(|x - anchor|) is monotone in x on each
    side of the anchor, so `np.clip(x, lo, hi)` is exactly feasible.
    """
    lo = _repair_ball(anchor - epsilon, anchor, epsilon)
    hi = _repair_ball(anchor + epsilon, anchor, epsilon)
    return np.maximum(lo, 0.0), np.minimum(hi, 1.0)


def pgd_attack(
    model: ModelParams, batch: LabeledBatch, cfg: AttackConfig, seed
) -> np.ndarray:
    """Iterated sign-gradient ascent on cross-entropy inside the epsilon ball.

    Each step walks the current perturbed rows with `forward` into the one
    set of walk buffers this attack allocates, then takes the input
    gradient of the plain unweighted per-example loss from `backward`
    without loss weights on that set, which forms no weight gradient.  The
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
    lo, hi = feasible_box(anchor, cfg.epsilon)
    rng = np.random.default_rng(seed)
    if cfg.random_start:
        start = anchor + rng.uniform(-cfg.epsilon, cfg.epsilon, size=anchor.shape)
        perturbed = np.clip(start, lo, hi, out=start)
    else:
        perturbed = anchor.copy()
    buffers = walk_buffers(model, anchor.shape[0])
    for step in range(cfg.steps):
        forward(model, perturbed, buffers)
        _, input_grads = backward(model, perturbed, batch.labels, buffers)
        if not np.all(np.isfinite(input_grads)):
            raise RuntimeError(
                f"non-finite input gradient at attack step {step}; "
                "the model has diverged and the attack cannot continue"
            )
        candidate = perturbed + cfg.step_size * np.sign(input_grads)
        perturbed = np.clip(candidate, lo, hi, out=candidate)
    return perturbed
