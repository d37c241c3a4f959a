import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from codat.dro_core import (
    ZERO_VARIANCE_GUARD,
    AmbiguityConfig,
    ClassRiskVector,
    ProbabilityDistribution,
    chi_square_divergence,
    closed_form,
    exact_worst_case,
    mean_variance_under,
    oracle_worst_case,
    uniform_distribution,
    worst_case_distribution,
)


def dirac(num_classes, index=0):
    w = np.zeros(num_classes)
    w[index] = 1.0
    return ProbabilityDistribution(w)


# ---------------------------------------------------------------- types


def test_distribution_rejects_negative_weights():
    with pytest.raises(ValueError):
        ProbabilityDistribution([0.6, 0.5, -0.1])


def test_distribution_rejects_bad_mass():
    with pytest.raises(ValueError):
        ProbabilityDistribution([0.5, 0.6])


def test_distribution_rejects_single_class():
    with pytest.raises(ValueError):
        ProbabilityDistribution([1.0])


def test_distribution_weights_are_immutable():
    dist = uniform_distribution(3)
    with pytest.raises(ValueError):
        dist.weights[0] = 0.9


def test_risk_vector_rejects_nonfinite_and_negative():
    with pytest.raises(ValueError):
        ClassRiskVector([1.0, np.inf])
    with pytest.raises(ValueError):
        ClassRiskVector([1.0, -0.5])


def test_ambiguity_radius_must_stay_below_dirac_bound():
    with pytest.raises(ValueError):
        AmbiguityConfig(uniform_distribution(3), eta=2.0)
    with pytest.raises(ValueError):
        AmbiguityConfig(uniform_distribution(3), eta=-0.1)
    # zero radius collapses the ball to the center and is allowed
    assert AmbiguityConfig(uniform_distribution(3), eta=0.0).eta == 0.0


@pytest.mark.parametrize("eta", [True, False, "0.5", None])
def test_ambiguity_radius_must_be_a_real_number(eta):
    with pytest.raises(ValueError, match="eta: expected a real number"):
        AmbiguityConfig(uniform_distribution(3), eta)


# ---------------------------------------------------------- divergence


def test_divergence_dirac_versus_uniform_is_classes_minus_one():
    assert chi_square_divergence(dirac(10), uniform_distribution(10)) == 9.0


def test_divergence_dirac_versus_uniform_exact_for_many_sizes():
    for num_classes in (2, 3, 7, 49, 93, 100):
        d = chi_square_divergence(dirac(num_classes), uniform_distribution(num_classes))
        assert d == float(num_classes - 1)


def test_divergence_of_distribution_with_itself_is_zero():
    dist = ProbabilityDistribution([0.2, 0.3, 0.5])
    assert chi_square_divergence(dist, dist) == 0.0


def test_divergence_half_half_versus_uniform_four():
    p = ProbabilityDistribution([0.5, 0.5, 0.0, 0.0])
    assert chi_square_divergence(p, uniform_distribution(4)) == 1.0


def test_divergence_requires_absolute_continuity():
    p = ProbabilityDistribution([0.5, 0.25, 0.25])
    q = ProbabilityDistribution([0.0, 0.5, 0.5])
    with pytest.raises(ValueError, match="continuity"):
        chi_square_divergence(p, q)


def test_divergence_rejects_dimension_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        chi_square_divergence(uniform_distribution(3), uniform_distribution(4))


# ------------------------------------------------------------- moments


def test_moments_of_one_two_three_under_uniform():
    mean, variance = mean_variance_under(uniform_distribution(3), ClassRiskVector([1, 2, 3]))
    assert mean == pytest.approx(2.0, abs=1e-12)
    assert variance == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_moments_of_constant_risks():
    mean, variance = mean_variance_under(uniform_distribution(4), ClassRiskVector([2.5] * 4))
    assert mean == pytest.approx(2.5, abs=1e-12)
    assert variance == 0.0


def test_moments_variance_never_negative():
    rng = np.random.default_rng(7)
    for _ in range(100):
        k = int(rng.integers(2, 12))
        w = rng.dirichlet(np.ones(k))
        r = rng.uniform(0, 5, size=k)
        _, variance = mean_variance_under(ProbabilityDistribution(w), ClassRiskVector(r))
        assert variance >= 0.0


# ------------------------------------------------- closed-form solution


def reference_instance():
    risks = ClassRiskVector([1.0, 2.0, 3.0])
    cfg = AmbiguityConfig(uniform_distribution(3), eta=0.1)
    return risks, cfg


def test_worst_case_closed_form_reference_values():
    risks, cfg = reference_instance()
    sol = worst_case_distribution(risks, cfg)
    assert sol.closed_form.valid
    assert not sol.closed_form.degenerate
    np.testing.assert_allclose(
        sol.distribution.weights, [0.20423389, 0.33333333, 0.46243278], atol=1e-8
    )
    assert sol.objective_value == pytest.approx(2.258198889747161, abs=1e-12)
    assert sol.closed_form.multiplier == pytest.approx(1.2909944487358052, abs=1e-12)


def test_worst_case_sits_exactly_on_the_ball_boundary():
    risks, cfg = reference_instance()
    sol = worst_case_distribution(risks, cfg)
    assert chi_square_divergence(sol.distribution, cfg.p0) == pytest.approx(cfg.eta, abs=1e-8)


def test_worst_case_objective_equals_reweighted_risk():
    risks, cfg = reference_instance()
    sol = worst_case_distribution(risks, cfg)
    reweighted = float(np.dot(sol.distribution.weights, risks.risks))
    assert reweighted == pytest.approx(sol.objective_value, abs=1e-8)


def test_multiplier_reconstructs_the_worst_case():
    # p0 times the likelihood ratio 1 + (r - mean) / (2 alpha*) must rebuild p*.
    risks, cfg = reference_instance()
    sol = worst_case_distribution(risks, cfg)
    alpha = closed_form(risks, cfg).multiplier
    mean, _ = mean_variance_under(cfg.p0, risks)
    ratio = 1.0 + (risks.risks - mean) / (2.0 * alpha)
    np.testing.assert_allclose(cfg.p0.weights * ratio, sol.distribution.weights, atol=1e-10)


def test_worst_case_constant_risks_degenerates_to_center():
    cfg = AmbiguityConfig(uniform_distribution(3), eta=0.1)
    sol = worst_case_distribution(ClassRiskVector([2.0, 2.0, 2.0]), cfg)
    assert sol.closed_form.degenerate
    assert not sol.closed_form.valid
    np.testing.assert_array_equal(sol.distribution.weights, cfg.p0.weights)
    assert sol.objective_value == pytest.approx(2.0, abs=1e-12)


def test_worst_case_negative_entry_falls_back_to_oracle():
    cfg = AmbiguityConfig(uniform_distribution(3), eta=1.9)
    sol = worst_case_distribution(ClassRiskVector([0.0, 10.0, 10.0]), cfg)
    assert not sol.closed_form.valid
    assert not sol.closed_form.degenerate
    # the constrained optimum drops the zero-risk class entirely; p0 on the
    # tied pair has divergence 0.5 <= 1.9, so the ball is slack there
    assert sol.objective_value == pytest.approx(10.0, abs=1e-6)
    np.testing.assert_allclose(sol.distribution.weights, [0.0, 0.5, 0.5], atol=1e-6)


def test_closed_form_is_invalid_exactly_where_the_oracle_takes_over(monkeypatch):
    # the exact solver takes over where the closed form fails, and only there
    from codat import dro_core

    solved = []

    def counting_exact(risks, cfg):
        solved.append(risks)
        return exact_worst_case(risks, cfg)

    def no_oracle(risks, cfg):
        raise AssertionError("worst_case_distribution called the dual oracle")

    monkeypatch.setattr(dro_core, "exact_worst_case", counting_exact)
    monkeypatch.setattr(dro_core, "oracle_worst_case", no_oracle)
    rng = np.random.default_rng(23)
    fallbacks = 0
    for _ in range(40):
        k = int(rng.integers(2, 8))
        risks = ClassRiskVector(rng.uniform(0, 5, size=k))
        cfg = AmbiguityConfig(uniform_distribution(k), eta=float(rng.uniform(0.05, 0.9 * (k - 1))))
        form = closed_form(risks, cfg)
        sol = worst_case_distribution(risks, cfg)
        # the solution carries the closed form it was built from
        assert sol.closed_form.gradient.tobytes() == form.gradient.tobytes()
        assert (sol.closed_form.objective, sol.closed_form.mean) == (form.objective, form.mean)
        if not form.valid:
            fallbacks += 1
            assert not sol.closed_form.valid and not sol.closed_form.degenerate
            assert solved and solved[-1] is risks
            dist, objective, multiplier = exact_worst_case(risks, cfg)
            assert dist.weights.tobytes() == sol.distribution.weights.tobytes()
            assert (objective, multiplier) == (sol.objective_value, sol.multiplier)
        else:
            assert form.gradient.tobytes() == sol.distribution.weights.tobytes()
            solved_form = sol.closed_form
            assert form.objective == sol.objective_value
            assert form.multiplier == solved_form.multiplier == sol.multiplier
            assert (form.valid, form.degenerate) == (solved_form.valid, solved_form.degenerate)
    assert fallbacks > 0
    assert len(solved) == fallbacks


def _closed_form_failures(seed, count):
    # random instances where the closed form has a negative entry: K from 2
    # to 9, a Dirichlet center on every third, risks rounded to 0.1 on every
    # fourth and 1e-12 near ties of the top risk on every fifth
    rng = np.random.default_rng(seed)
    cases = []
    index = 0
    while len(cases) < count:
        index += 1
        k = int(rng.integers(2, 10))
        risks = rng.uniform(0.0, 5.0, size=k)
        if index % 4 == 0:
            risks = np.round(risks, 1)
        if index % 5 == 0:
            near = rng.random(k) < 0.5
            risks[near] = np.max(risks) - rng.integers(0, 4, size=k)[near] * 1e-12
        if index % 3 == 0:
            p0 = ProbabilityDistribution(rng.dirichlet(np.full(k, 4.0)))
        else:
            p0 = uniform_distribution(k)
        cfg = AmbiguityConfig(p0, float(rng.uniform(0.05, 0.999 * (k - 1))))
        form = closed_form(ClassRiskVector(risks), cfg)
        if not form.valid and not form.degenerate:
            cases.append((ClassRiskVector(risks), cfg))
    return cases


def test_multiplier_gives_the_likelihood_ratio_where_the_closed_form_fails():
    # p_i = p0_i (r_i - t)_+ / (2 alpha) for one threshold t where the ball
    # binds; alpha = 0 where it is slack, and then the objective is the top risk
    slack = 0
    for risks, cfg in _closed_form_failures(seed=31, count=300):
        sol = worst_case_distribution(risks, cfg)
        p, p0, r = sol.distribution.weights, cfg.p0.weights, risks.risks
        if sol.multiplier == 0.0:
            slack += 1
            assert sol.objective_value == pytest.approx(float(np.max(r)), abs=1e-12)
            assert chi_square_divergence(sol.distribution, cfg.p0) <= cfg.eta
            continue
        assert sol.multiplier > 0.0
        assert sol.multiplier != sol.closed_form.multiplier
        # t measured from the top risk, so that 1e-12 near ties stay resolved
        top = int(np.argmax(r))
        shifted = r - r[top]
        threshold = -2.0 * sol.multiplier * p[top] / p0[top]
        expected = p0 * np.maximum(shifted - threshold, 0.0) / (2.0 * sol.multiplier)
        np.testing.assert_allclose(p, expected, rtol=0.0, atol=1e-9)
        assert chi_square_divergence(sol.distribution, cfg.p0) == pytest.approx(
            cfg.eta, abs=1e-9
        )
    assert slack > 0


def test_exact_solver_carries_its_dual_certificate():
    # where alpha > 0, the threshold t = r_i - 2 alpha p_i / p0_i of a class on
    # the support attains the dual t + sqrt(1 + eta) sqrt(E_p0[(R - t)_+^2]) at
    # the objective, which certifies p and alpha with no search; where alpha
    # is 0 the ball is slack and p is p0 on the tied top classes
    binding = slack = 0
    for risks, cfg in _closed_form_failures(seed=53, count=2000):
        dist, objective, multiplier = exact_worst_case(risks, cfg)
        p, p0, r = dist.weights, cfg.p0.weights, risks.risks
        if multiplier == 0.0:
            slack += 1
            top = r == np.max(r)
            expected = np.where(top, p0, 0.0) / np.sum(p0[top])
            np.testing.assert_allclose(p, expected, rtol=1e-15, atol=0.0)
            continue
        binding += 1
        i = int(np.argmax(p))
        t = r[i] - 2.0 * multiplier * p[i] / p0[i]
        tail = float(np.dot(p0, np.maximum(r - t, 0.0) ** 2))
        dual = t + math.sqrt(1.0 + cfg.eta) * math.sqrt(tail)
        assert abs(dual - objective) <= 1e-12 * abs(objective)
    assert binding > 0 and slack > 0


def test_slack_ball_returns_the_center_on_the_tied_top_classes():
    # p0 on the two tied top classes has divergence 1 <= 1.5: the ball is slack
    cfg = AmbiguityConfig(uniform_distribution(4), eta=1.5)
    sol = worst_case_distribution(ClassRiskVector([3.0, 1.0, 3.0, 0.0]), cfg)
    assert not sol.closed_form.valid
    np.testing.assert_array_equal(sol.distribution.weights, [0.5, 0.0, 0.5, 0.0])
    assert (sol.objective_value, sol.multiplier) == (3.0, 0.0)
    # the dual's slope stays negative up to the top risk: the same point
    dist, objective = oracle_worst_case(ClassRiskVector([3.0, 3.0, 1.0, 0.5]), cfg)
    np.testing.assert_array_equal(dist.weights, [0.5, 0.5, 0.0, 0.0])
    assert objective == 3.0


@st.composite
def _failing_instances(draw):
    k = draw(st.integers(2, 6))
    base = draw(st.lists(st.floats(0.0, 5.0), min_size=k, max_size=k))
    kind = draw(st.sampled_from(["plain", "tenths", "ties", "near_ties"]))
    if kind == "tenths":
        risks = [round(x, 1) for x in base]
    elif kind == "ties":
        tied = draw(st.lists(st.booleans(), min_size=k, max_size=k))
        risks = [max(base) if flag else x for x, flag in zip(base, tied)]
    elif kind == "near_ties":
        # one class at least 1 below k - 1 distinct risks at most 4e-12 apart
        offsets = draw(
            st.lists(st.integers(0, 4), min_size=k - 1, max_size=k - 1, unique=True)
        )
        risks = [base[0]] + [max(base) + 1.0 - n * 1e-12 for n in offsets]
    else:
        risks = base
    if draw(st.booleans()):
        p0 = uniform_distribution(k)
    else:
        raw = np.asarray(draw(st.lists(st.floats(0.1, 1.0), min_size=k, max_size=k)))
        p0 = ProbabilityDistribution(raw / np.sum(raw))
    eta = draw(st.floats(0.01, 0.99)) * (k - 1)
    return ClassRiskVector(risks), AmbiguityConfig(p0, eta)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(_failing_instances())
def test_exact_solver_agrees_with_the_dual_oracle(instance):
    risks, cfg = instance
    form = closed_form(risks, cfg)
    assume(not form.valid and not form.degenerate)
    exact, objective, multiplier = exact_worst_case(risks, cfg)
    dual, dual_objective = oracle_worst_case(risks, cfg)
    assert abs(objective - dual_objective) <= 1e-9 * max(1.0, abs(objective))
    for dist, value in ((exact, objective), (dual, dual_objective)):
        assert chi_square_divergence(dist, cfg.p0) <= cfg.eta + 1e-9
        assert value == float(risks.risks.dot(dist.weights))
    assert multiplier >= 0.0


@settings(derandomize=True, deadline=None, max_examples=50)
@given(_failing_instances(), st.integers(0, 2**32 - 1))
def test_dual_oracle_is_never_below_a_feasible_point(instance, seed):
    # Dirichlet draws pulled toward p0 into the ball: chi2 scales with the
    # square of the pull, and the slack absorbs the pull's rounding
    risks, cfg = instance
    _, dual_objective = oracle_worst_case(risks, cfg)
    rng = np.random.default_rng(seed)
    p0 = cfg.p0.weights
    for _ in range(200):
        point = ProbabilityDistribution(rng.dirichlet(np.ones(p0.size)))
        while (divergence := chi_square_divergence(point, cfg.p0)) > cfg.eta:
            pull = 0.999999 * math.sqrt(cfg.eta / divergence)
            point = ProbabilityDistribution(p0 + pull * (point.weights - p0))
        assert float(risks.risks.dot(point.weights)) <= dual_objective * (1.0 + 1e-12)


def test_worst_case_weights_grow_with_risk():
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 50:
        k = int(rng.integers(2, 11))
        risks = ClassRiskVector(rng.uniform(0, 5, size=k))
        cfg = AmbiguityConfig(uniform_distribution(k), eta=float(rng.uniform(0.05, 0.9)))
        sol = worst_case_distribution(risks, cfg)
        if not sol.closed_form.valid:
            continue
        order = np.argsort(risks.risks)
        ordered_weights = sol.distribution.weights[order]
        ordered_risks = risks.risks[order]
        strict = np.diff(ordered_risks) > 0
        assert np.all(np.diff(ordered_weights)[strict] > 0)
        checked += 1


# --------------------------------------------------------- multiplier


def test_multiplier_special_ratios():
    # variance of [1,2,3] under uniform is 2/3; radius equal to the variance
    # gives alpha* = 1/2, radius at a quarter of it gives alpha* = 1.
    risks = ClassRiskVector([1.0, 2.0, 3.0])
    p0 = uniform_distribution(3)
    assert closed_form(risks, AmbiguityConfig(p0, eta=2.0 / 3.0)).multiplier == pytest.approx(
        0.5, abs=1e-12
    )
    assert closed_form(risks, AmbiguityConfig(p0, eta=1.0 / 6.0)).multiplier == pytest.approx(
        1.0, abs=1e-12
    )


def test_multiplier_undefined_for_constant_risks_or_zero_radius():
    # alpha* is undefined there, and the closed form documents it as 0.0
    p0 = uniform_distribution(3)
    constant = closed_form(ClassRiskVector([1.0, 1.0, 1.0]), AmbiguityConfig(p0, eta=0.1))
    zero_radius = closed_form(ClassRiskVector([1.0, 2.0, 3.0]), AmbiguityConfig(p0, eta=0.0))
    assert constant.multiplier == 0.0
    assert zero_radius.multiplier == 0.0


# ---------------------------------------------------------- objective


def test_equivalent_objective_reference_value():
    risks, cfg = reference_instance()
    assert closed_form(risks, cfg).objective == pytest.approx(2.258198889747161, abs=1e-12)


def test_equivalent_objective_constant_risks_is_the_constant():
    cfg = AmbiguityConfig(uniform_distribution(3), eta=0.4)
    assert closed_form(ClassRiskVector([1.7] * 3), cfg).objective == pytest.approx(1.7, abs=1e-12)


def test_equivalent_objective_zero_radius_is_the_mean():
    cfg = AmbiguityConfig(uniform_distribution(3), eta=0.0)
    assert closed_form(ClassRiskVector([1, 2, 3]), cfg).objective == pytest.approx(2.0, abs=1e-12)


def test_equivalent_objective_bounded_by_mean_and_max():
    rng = np.random.default_rng(23)
    for _ in range(100):
        k = int(rng.integers(2, 11))
        risks = ClassRiskVector(rng.uniform(0, 5, size=k))
        cfg = AmbiguityConfig(uniform_distribution(k), eta=float(rng.uniform(0.05, 0.9)))
        sol = worst_case_distribution(risks, cfg)
        if not sol.closed_form.valid:
            continue
        mean, _ = mean_variance_under(cfg.p0, risks)
        value = closed_form(risks, cfg).objective
        assert mean - 1e-12 <= value <= float(np.max(risks.risks)) + 1e-12


def test_equivalent_objective_nondecreasing_in_radius():
    rng = np.random.default_rng(31)
    for _ in range(50):
        k = int(rng.integers(2, 11))
        risks = ClassRiskVector(rng.uniform(0, 5, size=k))
        p0 = uniform_distribution(k)
        radii = np.sort(rng.uniform(0.0, 0.9, size=4))
        values = [closed_form(risks, AmbiguityConfig(p0, eta=float(e))).objective for e in radii]
        assert np.all(np.diff(values) >= -1e-12)


# ------------------------------------------------------------ gradient


def central_difference_gradient(risks, cfg, h=1e-5):
    base = risks.risks
    grad = np.zeros(base.size)
    for i in range(base.size):
        bumped_up = base.copy()
        bumped_up[i] += h
        bumped_down = base.copy()
        bumped_down[i] -= h
        f_plus = closed_form(ClassRiskVector(bumped_up), cfg).objective
        f_minus = closed_form(ClassRiskVector(bumped_down), cfg).objective
        grad[i] = (f_plus - f_minus) / (2.0 * h)
    return grad


def test_gradient_equals_worst_case_distribution_when_valid():
    risks, cfg = reference_instance()
    sol = worst_case_distribution(risks, cfg)
    np.testing.assert_allclose(
        closed_form(risks, cfg).gradient, sol.distribution.weights, atol=1e-12
    )


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    risks=st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=2, max_size=10),
    radius_fraction=st.floats(min_value=0.0, max_value=0.999),
)
def test_gradient_is_the_worst_case_bit_for_bit_property(risks, radius_fraction):
    # the identity the trainer's codat history row relies on: wherever the
    # closed form holds, the routing gradient is the worst-case distribution
    risks = ClassRiskVector(np.array(risks))
    cfg = AmbiguityConfig(uniform_distribution(risks.size), radius_fraction * (risks.size - 1))
    _, variance = mean_variance_under(cfg.p0, risks)
    gradient = closed_form(risks, cfg).gradient
    # decided before the solver runs, so no example takes the numeric fallback
    assume(variance >= ZERO_VARIANCE_GUARD and np.min(gradient) >= 0.0)
    solution = worst_case_distribution(risks, cfg)
    assert solution.closed_form.valid
    assert np.array_equal(gradient, solution.distribution.weights)
    assert solution.objective_value == closed_form(risks, cfg).objective


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(5)
    for _ in range(50):
        k = int(rng.integers(2, 11))
        risks = ClassRiskVector(rng.uniform(0.1, 5, size=k))
        cfg = AmbiguityConfig(uniform_distribution(k), eta=float(rng.uniform(0.05, 0.9)))
        _, variance = mean_variance_under(cfg.p0, risks)
        if variance < 1e-6:
            continue
        numeric = central_difference_gradient(risks, cfg)
        analytic = closed_form(risks, cfg).gradient
        np.testing.assert_allclose(analytic, numeric, atol=1e-5)


def test_gradient_constant_risks_returns_center():
    cfg = AmbiguityConfig(uniform_distribution(4), eta=0.3)
    np.testing.assert_array_equal(
        closed_form(ClassRiskVector([2.0] * 4), cfg).gradient, cfg.p0.weights
    )


def test_gradient_entries_sum_to_one():
    rng = np.random.default_rng(13)
    for _ in range(50):
        k = int(rng.integers(2, 11))
        risks = ClassRiskVector(rng.uniform(0, 5, size=k))
        cfg = AmbiguityConfig(uniform_distribution(k), eta=float(rng.uniform(0.05, 0.9)))
        assert float(np.sum(closed_form(risks, cfg).gradient)) == pytest.approx(
            1.0, abs=1e-9
        )


# -------------------------------------------------------------- oracle


def test_oracle_matches_closed_form_on_reference_instance():
    risks, cfg = reference_instance()
    _, objective = oracle_worst_case(risks, cfg)
    assert objective == pytest.approx(2.258198889747161, abs=1e-4)


def test_oracle_zero_radius_returns_center_and_mean():
    cfg = AmbiguityConfig(uniform_distribution(3), eta=0.0)
    dist, objective = oracle_worst_case(ClassRiskVector([1, 2, 3]), cfg)
    np.testing.assert_array_equal(dist.weights, cfg.p0.weights)
    assert objective == pytest.approx(2.0, abs=1e-12)


def test_oracle_keeps_its_precision_at_tiny_radii():
    # 1 + eta rounds to 1 below about 1e-16, and sqrt(variance / eta)
    # overflows near 1e-308; the slope's sign must still resolve
    risks = ClassRiskVector([1.0, 2.0, 3.0, 0.5])
    for eta in (1e-300, 1e-20, 1e-12):
        cfg = AmbiguityConfig(uniform_distribution(4), eta)
        form = closed_form(risks, cfg)
        dist, objective = oracle_worst_case(risks, cfg)
        assert abs(objective - form.objective) <= 1e-14
        assert float(np.max(np.abs(dist.weights - form.gradient))) <= 1e-14


def test_oracle_calls_neither_solver_it_checks(monkeypatch):
    from codat import dro_core

    def checked_solver(risks, cfg):
        raise AssertionError("oracle_worst_case called a solver it checks")

    cases = _closed_form_failures(seed=41, count=50) + [reference_instance()]
    monkeypatch.setattr(dro_core, "closed_form", checked_solver)
    monkeypatch.setattr(dro_core, "exact_worst_case", checked_solver)
    for risks, cfg in cases:
        oracle_worst_case(risks, cfg)


def test_fallback_reaches_the_best_response_on_a_near_tie():
    cfg = AmbiguityConfig(uniform_distribution(3), eta=1.5)
    sol = worst_case_distribution(ClassRiskVector([0.48, 1.33, 1.32]), cfg)
    # The best response drops class 1 and spends the rest of the ball on the
    # two-class face: p = (0, 1/2 + t, 1/2 - t) with divergence
    # 1/3 + 3 ((1/6 + t)^2 + (1/6 - t)^2) = 1.5, so t = sqrt(1/6).
    best_objective = 0.5 * (1.33 + 1.32) + 0.01 * math.sqrt(1.0 / 6.0)
    assert sol.objective_value == pytest.approx(best_objective, abs=1e-6)
    np.testing.assert_allclose(sol.distribution.weights, [0.0, 0.908, 0.092], atol=1e-3)
    # alpha = (B - tA) / 2 on the two-class support, not the closed form's 0.1626
    assert sol.multiplier == pytest.approx(0.0025 * math.sqrt(2.0 / 3.0), rel=1e-9)
    assert sol.closed_form.multiplier == pytest.approx(0.1626, abs=1e-4)


# ------------------------------------------------- mixed random sweeps


def test_closed_form_agrees_with_oracle_on_random_instances():
    rng = np.random.default_rng(101)
    checked = 0
    while checked < 40:
        k = int(rng.integers(2, 11))
        risks = ClassRiskVector(rng.uniform(0, 5, size=k))
        cfg = AmbiguityConfig(uniform_distribution(k), eta=float(rng.uniform(0.05, 0.9)))
        sol = worst_case_distribution(risks, cfg)
        if not sol.closed_form.valid:
            continue
        dist, objective = oracle_worst_case(risks, cfg)
        assert abs(objective - sol.objective_value) <= 1e-3
        assert float(np.max(np.abs(dist.weights - sol.distribution.weights))) <= 1e-3
        checked += 1


def test_closed_form_identities_on_random_instances():
    rng = np.random.default_rng(59)
    checked = 0
    while checked < 60:
        k = int(rng.integers(2, 11))
        risks = ClassRiskVector(rng.uniform(0, 5, size=k))
        cfg = AmbiguityConfig(uniform_distribution(k), eta=float(rng.uniform(0.05, 0.9)))
        sol = worst_case_distribution(risks, cfg)
        if not sol.closed_form.valid:
            continue
        assert chi_square_divergence(sol.distribution, cfg.p0) == pytest.approx(
            cfg.eta, abs=1e-8
        )
        assert float(np.dot(sol.distribution.weights, risks.risks)) == pytest.approx(
            sol.objective_value, abs=1e-8
        )
        alpha = closed_form(risks, cfg).multiplier
        mean, _ = mean_variance_under(cfg.p0, risks)
        rebuilt = cfg.p0.weights * (1.0 + (risks.risks - mean) / (2.0 * alpha))
        np.testing.assert_allclose(rebuilt, sol.distribution.weights, atol=1e-10)
        checked += 1
