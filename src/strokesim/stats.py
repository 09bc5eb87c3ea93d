"""Two-sample and paired t-tests on top of a self-contained incomplete beta function.

The simulation's headline claims rest on these p-values, so the kernel
carries its own special-function evaluation rather than pulling in a
statistics dependency: the regularized incomplete beta is computed with
the standard continued fraction (modified Lentz), which converges to
better than 1e-10 over the arguments a t-test ever produces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

_CF_EPS = 1e-15
_CF_TINY = 1e-300
_CF_MAX_ITER = 300


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (Lentz's method)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _CF_TINY:
        d = _CF_TINY
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _CF_TINY:
            d = _CF_TINY
        c = 1.0 + aa / c
        if abs(c) < _CF_TINY:
            c = _CF_TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _CF_TINY:
            d = _CF_TINY
        c = 1.0 + aa / c
        if abs(c) < _CF_TINY:
            c = _CF_TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    raise ArithmeticError(f"incomplete beta continued fraction stalled at a={a}, b={b}, x={x}")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if a <= 0 or b <= 0:
        raise ValueError("shape parameters must be positive")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    # the continued fraction converges fast only on one side of the mean
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_p_value(t: float, df: float) -> float:
    """Two-sided p for a t statistic: P(|T_df| >= |t|)."""
    if df <= 0:
        raise ValueError("degrees of freedom must be positive")
    if math.isinf(t):
        return 0.0
    return regularized_incomplete_beta(0.5 * df, 0.5, df / (df + t * t))


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)


def sample_variance(values: Sequence[float]) -> float:
    """Unbiased variance (divisor n-1)."""
    n = len(values)
    if n < 2:
        raise ValueError("variance needs at least two values")
    m = mean(values)
    return sum((v - m) ** 2 for v in values) / (n - 1)


@dataclass
class TTestResult:
    t: float
    df: float
    p: float
    mean_a: float
    mean_b: float
    degenerate: bool = False  # zero-variance input; t/p set by convention


def t_test(
    sample_a: Sequence[float], sample_b: Sequence[float], welch: bool = False
) -> TTestResult:
    """Two-sample two-sided t-test, pooled variance by default.

    Pooled (Student's) form: df = n_a + n_b - 2.  `welch=True` switches to
    the unequal-variance form with Welch-Satterthwaite df.  Zero variance
    is handled by convention instead of erroring: equal means give t=0,
    p=1; unequal means give p=0 with the sign of the difference.
    """
    n_a, n_b = len(sample_a), len(sample_b)
    if n_a < 2 or n_b < 2:
        raise ValueError("both samples need at least two values")
    m_a, m_b = mean(sample_a), mean(sample_b)
    v_a, v_b = sample_variance(sample_a), sample_variance(sample_b)
    diff = m_a - m_b

    if welch:
        se2 = v_a / n_a + v_b / n_b
        if se2 == 0.0:
            return _degenerate(diff, float(n_a + n_b - 2), m_a, m_b)
        df = se2 * se2 / (
            (v_a / n_a) ** 2 / (n_a - 1) + (v_b / n_b) ** 2 / (n_b - 1)
        )
        t = diff / math.sqrt(se2)
    else:
        df = float(n_a + n_b - 2)
        pooled = ((n_a - 1) * v_a + (n_b - 1) * v_b) / df
        se2 = pooled * (1.0 / n_a + 1.0 / n_b)
        if se2 == 0.0:
            return _degenerate(diff, df, m_a, m_b)
        t = diff / math.sqrt(se2)

    return TTestResult(t=t, df=df, p=student_t_p_value(t, df), mean_a=m_a, mean_b=m_b)


def paired_t_test(sample_a: Sequence[float], sample_b: Sequence[float]) -> TTestResult:
    """Paired two-sided t-test on matched samples: df = n - 1.

    Pair i is (sample_a[i], sample_b[i]), as when both come from the same
    random numbers; t is the mean difference over its standard error.
    Zero variance of the differences follows `t_test`'s convention.
    """
    n = len(sample_a)
    if n != len(sample_b):
        raise ValueError("paired samples must have the same length")
    if n < 2:
        raise ValueError("paired samples need at least two pairs")
    diffs = [a - b for a, b in zip(sample_a, sample_b)]
    m_d = mean(diffs)
    df = float(n - 1)
    se2 = sample_variance(diffs) / n
    m_a, m_b = mean(sample_a), mean(sample_b)
    if se2 == 0.0:
        return _degenerate(m_d, df, m_a, m_b)
    t = m_d / math.sqrt(se2)
    return TTestResult(t=t, df=df, p=student_t_p_value(t, df), mean_a=m_a, mean_b=m_b)


def _degenerate(diff: float, df: float, m_a: float, m_b: float) -> TTestResult:
    if diff == 0.0:
        return TTestResult(t=0.0, df=df, p=1.0, mean_a=m_a, mean_b=m_b, degenerate=True)
    t = math.inf if diff > 0 else -math.inf
    return TTestResult(t=t, df=df, p=0.0, mean_a=m_a, mean_b=m_b, degenerate=True)
