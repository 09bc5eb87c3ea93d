"""Student t machinery against scipy and hand-worked references.

scipy is a test-side reference only; the package never imports it.
"""

import math

import numpy as np
import pytest
import scipy.special
import scipy.stats

from strokesim.stats import (
    TTestResult,
    mean,
    paired_t_test,
    regularized_incomplete_beta,
    sample_variance,
    student_t_p_value,
    t_test,
)

REFERENCE_A = (1.0, 2.0, 3.0, 4.0, 5.0)
REFERENCE_B = (2.0, 3.0, 4.0, 5.0, 6.0)


def test_package_does_not_import_scipy():
    import strokesim
    import strokesim.montecarlo
    import strokesim.stats
    import sys

    offenders = [
        name for name, mod in sys.modules.items()
        if name.startswith("strokesim") and mod is not None
        and "scipy" in getattr(mod, "__dict__", {})
    ]
    assert offenders == []


# --- moments ---


def test_mean_and_variance_hand_values():
    assert mean([1.0, 2.0, 3.0]) == 2.0
    assert sample_variance([1.0, 2.0, 3.0]) == 1.0  # divisor n-1
    assert sample_variance([4.0, 4.0, 4.0, 4.0]) == 0.0


def test_variance_requires_two_points():
    with pytest.raises(ValueError):
        sample_variance([1.0])


# --- regularized incomplete beta ---


def test_incomplete_beta_edges():
    assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
    assert regularized_incomplete_beta(2.0, 3.0, -0.5) == 0.0
    assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0
    assert regularized_incomplete_beta(2.0, 3.0, 1.5) == 1.0


def test_incomplete_beta_rejects_nonpositive_shape():
    for a, b in ((0.0, 1.0), (1.0, 0.0), (-2.0, 3.0)):
        with pytest.raises(ValueError):
            regularized_incomplete_beta(a, b, 0.5)


def test_incomplete_beta_uniform_case():
    # I_x(1, 1) is the identity
    for x in (0.1, 0.25, 0.5, 0.9):
        assert regularized_incomplete_beta(1.0, 1.0, x) == pytest.approx(x, abs=1e-14)


def test_incomplete_beta_analytic_a1():
    # I_x(1, b) = 1 - (1-x)^b
    for b in (0.5, 2.0, 7.0):
        for x in (0.05, 0.3, 0.8):
            assert regularized_incomplete_beta(1.0, b, x) == pytest.approx(
                1.0 - (1.0 - x) ** b, rel=1e-12)


def test_incomplete_beta_matches_scipy_grid():
    shapes = (0.5, 1.0, 2.5, 10.0, 50.0, 499.5)
    xs = (1e-6, 0.01, 0.2, 0.5, 0.8, 0.99, 1.0 - 1e-6)
    for a in shapes:
        for b in shapes:
            for x in xs:
                ours = regularized_incomplete_beta(a, b, x)
                ref = scipy.special.betainc(a, b, x)
                assert ours == pytest.approx(ref, rel=1e-10, abs=1e-13), (a, b, x)


def test_incomplete_beta_reflection_identity():
    rng = np.random.default_rng(17)
    for _ in range(200):
        a, b = rng.uniform(0.2, 30.0, 2)
        x = rng.uniform(0.001, 0.999)
        lhs = regularized_incomplete_beta(a, b, x)
        rhs = 1.0 - regularized_incomplete_beta(b, a, 1.0 - x)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_incomplete_beta_monotone_in_x():
    xs = np.linspace(0.0, 1.0, 101)
    values = [regularized_incomplete_beta(3.0, 7.0, float(x)) for x in xs]
    assert all(b >= a for a, b in zip(values, values[1:]))


# --- tail probability ---


def test_p_value_matches_scipy_grid():
    for t in (-8.0, -2.3, -1.0, -0.1, 0.0, 0.5, 1.96, 4.0, 12.0):
        for df in (1.0, 2.0, 8.0, 17.5, 100.0, 1998.0):
            ours = student_t_p_value(t, df)
            ref = 2.0 * scipy.stats.t.sf(abs(t), df)
            assert ours == pytest.approx(ref, rel=1e-9, abs=1e-15), (t, df)


def test_p_value_is_even_in_t():
    for t in (0.3, 1.7, 5.0):
        assert student_t_p_value(t, 9.0) == student_t_p_value(-t, 9.0)


def test_p_value_edges():
    assert student_t_p_value(0.0, 5.0) == pytest.approx(1.0, abs=1e-12)
    assert student_t_p_value(float("inf"), 5.0) == 0.0
    assert student_t_p_value(float("-inf"), 5.0) == 0.0
    with pytest.raises(ValueError):
        student_t_p_value(1.0, 0.0)


# --- t tests ---


def test_reference_samples_pooled():
    result = t_test(REFERENCE_A, REFERENCE_B)
    assert result.t == -1.0
    assert result.df == 8
    assert abs(result.p - 0.3466) < 1e-3
    assert result.mean_a == 3.0
    assert result.mean_b == 4.0
    assert not result.degenerate


def test_reference_samples_against_scipy():
    ours = t_test(REFERENCE_A, REFERENCE_B)
    ref = scipy.stats.ttest_ind(REFERENCE_A, REFERENCE_B, equal_var=True)
    assert ours.t == pytest.approx(float(ref.statistic), rel=1e-12)
    assert ours.p == pytest.approx(float(ref.pvalue), rel=1e-10)


def test_random_samples_match_scipy_pooled_and_welch():
    rng = np.random.default_rng(99)
    for _ in range(50):
        na, nb = int(rng.integers(2, 40)), int(rng.integers(2, 40))
        a = rng.normal(0.0, 1.0, na)
        b = rng.normal(rng.uniform(-1, 1), rng.uniform(0.5, 3.0), nb)
        for welch in (False, True):
            ours = t_test(a, b, welch=welch)
            ref = scipy.stats.ttest_ind(a, b, equal_var=not welch)
            assert ours.t == pytest.approx(float(ref.statistic), rel=1e-9)
            assert ours.p == pytest.approx(float(ref.pvalue), rel=1e-8, abs=1e-12)
            assert ours.df == pytest.approx(float(ref.df), rel=1e-9)


def test_antisymmetric_in_sample_order():
    rng = np.random.default_rng(3)
    a = rng.normal(0, 1, 12)
    b = rng.normal(0.4, 1.3, 9)
    for welch in (False, True):
        fwd = t_test(a, b, welch=welch)
        rev = t_test(b, a, welch=welch)
        assert fwd.t == pytest.approx(-rev.t, rel=1e-12)
        assert fwd.p == pytest.approx(rev.p, rel=1e-12)
        assert fwd.df == pytest.approx(rev.df, rel=1e-12)


def test_shift_and_scale_behaviour():
    rng = np.random.default_rng(5)
    a = rng.normal(10, 2, 20)
    b = rng.normal(11, 2, 20)
    base = t_test(a, b)
    shifted = t_test(a + 100.0, b + 100.0)
    scaled = t_test(a * 3.0, b * 3.0)
    assert shifted.t == pytest.approx(base.t, rel=1e-9)
    assert scaled.t == pytest.approx(base.t, rel=1e-9)
    assert scaled.p == pytest.approx(base.p, rel=1e-8)


def test_degenerate_identical_constant_samples():
    result = t_test([5.0, 5.0, 5.0], [5.0, 5.0])
    assert result.degenerate
    assert result.t == 0.0
    assert result.p == 1.0


def test_degenerate_distinct_constant_samples():
    result = t_test([5.0, 5.0], [7.0, 7.0])
    assert result.degenerate
    assert result.t == float("-inf")
    assert result.p == 0.0
    flipped = t_test([7.0, 7.0], [5.0, 5.0])
    assert flipped.t == float("inf")


def test_small_samples_rejected():
    with pytest.raises(ValueError):
        t_test([1.0], [2.0, 3.0])
    with pytest.raises(ValueError):
        t_test([1.0, 2.0], [3.0])


def test_result_is_plain_dataclass():
    result = t_test(REFERENCE_A, REFERENCE_B)
    assert isinstance(result, TTestResult)
    assert set(vars(result)) == {"t", "df", "p", "mean_a", "mean_b", "degenerate"}


# --- paired test ---


def test_paired_random_samples_match_scipy():
    rng = np.random.default_rng(17)
    for _ in range(50):
        n = int(rng.integers(2, 40))
        a = rng.normal(0.0, 1.0, n)
        # correlated partner, as common random numbers give
        b = 0.8 * a + rng.normal(rng.uniform(-1, 1), rng.uniform(0.1, 2.0), n)
        ours = paired_t_test(a, b)
        ref = scipy.stats.ttest_rel(a, b)
        assert ours.t == pytest.approx(float(ref.statistic), rel=1e-9)
        assert ours.p == pytest.approx(float(ref.pvalue), rel=1e-8, abs=1e-12)
        assert ours.df == float(ref.df) == n - 1
        assert (ours.mean_a, ours.mean_b) == (mean(a), mean(b))


def test_paired_differs_from_two_sample_on_correlated_pairs():
    # a constant-ish shift on noisy pairs: the pairing removes the noise
    a = [10.0, 20.0, 30.0, 40.0, 50.0]
    b = [11.0, 20.5, 31.2, 40.9, 51.1]
    paired, unpaired = paired_t_test(a, b), t_test(a, b)
    assert paired.df == 4.0 and unpaired.df == 8.0
    assert paired.p < 0.01 < unpaired.p


def test_paired_degenerate_and_invalid_inputs():
    same = paired_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert same.degenerate and same.t == 0.0 and same.p == 1.0
    shifted = paired_t_test([2.0, 3.0, 4.0], [1.0, 2.0, 3.0])
    assert shifted.degenerate and shifted.t == float("inf") and shifted.p == 0.0
    with pytest.raises(ValueError, match="same length"):
        paired_t_test([1.0, 2.0, 3.0], [1.0, 2.0])
    with pytest.raises(ValueError, match="two pairs"):
        paired_t_test([1.0], [2.0])
