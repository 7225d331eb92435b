"""`uqd.laws` and the two-sample tests built on it, against scipy.stats as
the oracle: the KS statistic, p-value and method to the bit, the chi-square
statistic to the bit and its tail to 1e-13."""

import warnings

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from uqd.ensemble import _chi2_two_sample, _ks_2samp, _pooled_table
from uqd.errors import NumericalError
from uqd.laws import chi2_sf, kolmogorov_sf, ks_two_sample_sf

# Hodges' recursion rounds by less than n * 2**-52 (2e-12 at n = 10**4), so
# from this tail down it cannot round past 1 and fall back.
NEAR_ONE = 1 - 1e-9


def scipy_ks(x, y):
    """scipy's exact KS result and the method that gave its p-value, read
    from the warning it gives when it falls back."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = scipy.stats.ks_2samp(x, y, method="exact")
    fell_back = [w for w in caught if "Exact calculation unsuccessful" in str(w.message)]
    assert len(fell_back) == len(caught)
    return float(result.statistic), float(result.pvalue), "asymp" if fell_back else "exact"


def fallback_steps(n):
    """Every ``h`` at which Hodges' recursion for two samples of ``n``
    rounds outside [0, 1]."""
    steps = []
    for h in range(1, n + 1):
        p = ks_two_sample_sf(n, h)
        if not 0 <= p <= 1:
            steps.append(h)
        elif p < NEAR_ONE:
            return steps
    return steps


class TestKolmogorovSmirnov:
    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 2000),
        levels=st.integers(1, 40),
        shift=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_tied_samples_match_scipy(self, n, levels, shift, seed):
        rng = np.random.default_rng(seed)
        x = rng.integers(0, levels, n) * 0.25
        y = rng.integers(shift, levels + shift, n) * 0.25
        assert _ks_2samp(x, y) == scipy_ks(x, y)

    def test_every_fallback_matches_scipy(self):
        # every n up to 300 and a 60-point log grid up to 10**4; at each
        # fallback step h the samples are two shifted ranges, D = h / n
        grid = np.unique(np.round(np.logspace(np.log10(301), 4, 60)).astype(int))
        methods = set()
        tails = []
        for n in [*range(1, 301), *grid.tolist()]:
            for h in fallback_steps(n):
                x = np.arange(n, dtype=float)
                result = _ks_2samp(x, x + h)
                assert result == scipy_ks(x, x + h), (n, h)
                methods.add(result[2])
                tails.append(result[1])
        assert methods == {"asymp"}
        assert len(tails) > 400
        assert min(tails) < 1.0  # so "clip to 1" would not do

    def test_identical_samples(self):
        assert _ks_2samp(np.ones(5), np.ones(5)) == (0.0, 1.0, "exact")

    @pytest.mark.parametrize("n", [150, 1000, 100_001, 10**6])
    def test_pelz_good_branch_matches_scipy(self, n):
        # Pelz-Good above n = 10**5, or where n x**1.5 > 1.4, up to n x**2 = 2.2
        xs = np.linspace(0.5 / n, np.sqrt(2.19 / n), 25)[1:]
        assert any(n > 100_000 or n * x**1.5 > 1.4 for x in xs if n * x > 1)
        for x in xs:
            assert kolmogorov_sf(n, x) == float(scipy.stats.kstwo.sf(x, n)), x

    @pytest.mark.parametrize("n, x", [(100, 0.6), (100, 0.2), (1000, 0.05), (5, 0.9)])
    def test_unported_branches_named(self, n, x):
        with pytest.raises(NumericalError, match="not ported"):
            kolmogorov_sf(n, x)


class TestChiSquare:
    @settings(max_examples=100, deadline=None)
    @given(
        size=st.integers(10, 3000),
        mean=st.floats(0.2, 30.0),
        ratio=st.floats(0.8, 1.25),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_statistic_matches_scipy(self, size, mean, ratio, seed):
        rng = np.random.default_rng(seed)
        x, y = rng.poisson(mean, size), rng.poisson(mean * ratio, size)
        stat, p = _chi2_two_sample(x, y)
        table = _pooled_table(x, y)
        if table.shape[1] < 2:
            assert (stat, p) == (0.0, 1.0)
            return
        ref = scipy.stats.chi2_contingency(table, correction=False)
        assert stat == float(ref.statistic)
        assert p == pytest.approx(float(ref.pvalue), rel=1e-13, abs=0)

    def test_tail_matches_scipy(self):
        # scipy's own tail drifts from the exact value by up to 1.1e-13
        # relative from x ~ 1000 on (about x * 2**-53; against 40-digit
        # mpmath), so it is the oracle below that and mpmath above
        xs = np.concatenate([np.linspace(0, 20, 401), np.geomspace(20, 1000, 400)])
        for df in range(1, 61):
            ref = scipy.stats.chi2.sf(xs, df)
            ours = np.array([chi2_sf(float(x), df) for x in xs])
            keep = ref >= 1e-300
            np.testing.assert_allclose(ours[keep], ref[keep], rtol=1e-13, atol=0, err_msg=f"df={df}")

    def test_tail_matches_exact_values(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            for df in range(1, 61):
                for x in np.geomspace(0.01, 3000, 45):
                    exact = mpmath.gammainc(mpmath.mpf(df) / 2, mpmath.mpf(float(x)) / 2, regularized=True)
                    if exact >= mpmath.mpf("1e-300"):
                        assert chi2_sf(float(x), df) == pytest.approx(float(exact), rel=1e-14, abs=0), (df, x)

    @pytest.mark.parametrize("df", [1, 2, 7, 2000, 2001])
    def test_far_tail_and_many_bins(self, df):
        assert chi2_sf(0.0, df) == 1.0
        assert chi2_sf(np.inf, df) == 0.0
        assert chi2_sf(1e6, df) == 0.0
        x = float(df) + 3.0
        assert chi2_sf(x, df) == pytest.approx(float(scipy.stats.chi2.sf(x, df)), rel=1e-11)
