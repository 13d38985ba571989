"""The arbitrary-precision reference for the modified Bessel functions K_n.

`bessel_k_series` sums the ascending series of K_n(x) term by term, from
factorials, powers and digamma values, in mpmath at `dps` digits.  It is the
reference of `fiber_mode.bessel_k`, and its values at the 25 `validate` points
are stored in src/fiberqed/data/bessel_k_series.json, which
`oracle.run_validation` reads.  To regenerate that file, write

    {"about": ..., "x": x, "K": [[bessel_k_series(n, x_i) for x_i in x] for n in (0, 1, 2)]}

with x = np.geomspace(1e-3, 30.0, 25).tolist(); tests/test_oracle.py requires
every stored value to equal the series exactly.
"""

import functools

import mpmath

#: the digamma weights are pure functions of an integer; caching them keeps the
#: series' arithmetic unchanged and computes each weight once per process
_digamma = functools.lru_cache(maxsize=None)(lambda k, dps: mpmath.digamma(k))


def bessel_k_series(order, x, dps=60):
    """K_n(x) from the ascending series term by term: factorials, powers and digamma."""
    n = order
    with mpmath.workdps(dps):
        xm = mpmath.mpf(x)
        half = xm / 2
        log_half = mpmath.log(half)

        def bessel_i(nu):
            total = mpmath.mpf(0)
            k = 0
            while True:
                term = half ** (2 * k + nu) / (mpmath.factorial(k) * mpmath.factorial(k + nu))
                total += term
                if abs(term) < mpmath.mpf(10) ** (-dps - 5) * (abs(total) + 1):
                    return total
                k += 1

        finite = mpmath.mpf(0)
        for k in range(n):
            finite += mpmath.factorial(n - k - 1) / mpmath.factorial(k) * (-(xm**2) / 4) ** k
        finite *= half ** (-n) / 2

        tail = mpmath.mpf(0)
        k = 0
        while True:
            term = (
                (_digamma(k + 1, dps) + _digamma(n + k + 1, dps))
                * (xm**2 / 4) ** k
                / (mpmath.factorial(k) * mpmath.factorial(n + k))
            )
            tail += term
            if abs(term) < mpmath.mpf(10) ** (-dps - 5) * (abs(tail) + 1):
                break
            k += 1
        tail *= (-1) ** n * half**n / 2

        return float(finite + (-1) ** (n + 1) * log_half * bessel_i(n) + tail)
