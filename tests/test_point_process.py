"""Time-model checks: closed-form values, branch continuity, the return-time
rule against closed-form, quantile and Monte Carlo oracles across rates,
and tape gradients."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from thrnn import point_process as pp
from thrnn.autodiff import Tape, Tensor
from thrnn.hawkes import HawkesParams, hawkes_predict_next
from thrnn.model import ModelConfig

import oracles


def _intensity(s, g, w, step=1e-5):
    """The intensity the density implies: d/dg log f(g) = w - lam(g), so
    lam = w minus a finite-difference slope of oracles.log_density_from_s
    (one-sided at g = 0, where the density is not defined below)."""
    lo = max(g - step, 0.0)
    hi = g + step
    slope = (oracles.log_density_from_s(s, hi, w)
             - oracles.log_density_from_s(s, lo, w)) / (hi - lo)
    return w - float(slope)


def _time_nll(s, w, gap, alpha=1.0, masked=False):
    """time_nll's value for one row; time_nll raises the gap to alpha."""
    out = pp.time_nll(Tape(), Tensor([[s]]), Tensor(w), np.array([gap]), alpha,
                      masked=np.array([masked]))
    return float(out.value)


class TestIntensity:
    def test_all_zero_gives_one(self):
        # s = v.h + b with v = 0, b = 0; f(0) equals the intensity at 0
        assert np.exp(oracles.log_density_from_s(0.0, 0.0, 0.0)) == pytest.approx(1.0)
        assert _intensity(0.0, 0.0, 0.0) == pytest.approx(1.0)

    def test_constant_when_w_zero(self):
        s = 1.0 * np.log(2.0) + 0.0  # v = 1, h = log 2, b = 0
        for g in (0.0, 1.0, 17.5):
            assert _intensity(s, g, 0.0) == pytest.approx(2.0)

    def test_closed_form(self):
        s = 1.0 * 0.0 + 0.3  # v = 1, h = 0, b = 0.3
        assert _intensity(s, 2.0, 0.1) == pytest.approx(np.exp(0.5))

    def test_negative_elapsed_rejected(self):
        with pytest.raises(ValueError):
            oracles.log_density_from_s(0.0, -1.0, 0.0)

    def test_overflow_detected(self):
        with pytest.raises(pp.ExponentOverflowError, match="diverged"):
            oracles.log_density_from_s(1.0 * 800.0, 1.0, 0.0)
        with pytest.raises(pp.ExponentOverflowError):
            oracles.log_density_from_s(0.0, 100.0, 8.0)


class TestLogDensity:
    def test_unit_rate_exponential(self):
        assert oracles.log_density_from_s(0.0, 1.0, 0.0) == pytest.approx(-1.0)

    def test_closed_form_w_one(self):
        got = oracles.log_density_from_s(0.0, 1.0, 1.0)
        assert got == pytest.approx(2.0 - np.e, abs=1e-12)

    def test_branch_continuity(self):
        # the exact expm1 form at w = 1e-7 and the limit branch differ by
        # O(w * g^2 * e^s / 2), comfortably below 1e-5 on this grid
        g = np.linspace(0.0, 5.0, 101)
        for s in (-1.0, 0.0, 1.0):
            exact = oracles.log_density_from_s(s, g, 1e-7, branch="exact")
            limit = oracles.log_density_from_s(s, g, 1e-7, branch="limit")
            assert np.max(np.abs(exact - limit)) < 1e-5

    def test_auto_branch_switches(self):
        lo = oracles.log_density_from_s(0.3, 2.0, 1e-8)
        assert lo == pytest.approx(
            float(oracles.log_density_from_s(0.3, 2.0, 0.0, branch="limit")))

    @given(st.floats(min_value=-2, max_value=2), st.floats(min_value=-1, max_value=1))
    @settings(max_examples=60, deadline=None)
    def test_normalization_when_proper(self, s, w):
        # for w < 0 part of the mass escapes to infinity; only draws whose
        # reachable mass is essentially 1 can integrate to 1 over any cutoff
        if oracles.total_mass(s, w) < 0.9999:
            return
        cutoff = _generous_cutoff(s, w)
        mass = oracles.density_mass_from_s(s, w, cutoff, 4096)[0]
        assert 0.99 <= mass <= 1.001

    def test_density_positive(self):
        logf = oracles.log_density_from_s(-0.5, np.linspace(0, 10, 50), 0.7)
        assert np.all(np.isfinite(logf))
        # strictly positive wherever float64 can still represent it
        assert np.all(np.exp(oracles.log_density_from_s(-0.5, np.linspace(0, 5, 50), 0.7)) > 0)


class TestTimeLoss:
    def test_alpha_one_is_plain_nll(self):
        s = float(np.dot([0.2, -0.1], [0.5, 1.0]) + 0.1)
        assert _time_nll(s, 0.4, 3.0) == pytest.approx(
            -float(oracles.log_density_from_s(s, 3.0, 0.4)))

    def test_closed_form_alpha_half(self):
        # g = 4 becomes g^0.5 = 2; with s = 0, w = 1 the nll is e^2 - 3
        got = _time_nll(0.0, 1.0, 4.0, alpha=0.5)
        assert got == pytest.approx(np.exp(2.0) - 3.0, abs=1e-12)

    def test_masked_is_zero(self):
        assert _time_nll(0.0, 1.0, 5.0, alpha=0.7, masked=True) == 0.0

    def test_shrinking_alpha_shifts_weight_to_short_gaps(self):
        # share of the total loss carried by the short gap grows as the
        # exponent shrinks (the long gap is compressed harder)
        def share(alpha, w):
            lo = _time_nll(0.0, w, 0.1, alpha)
            hi = _time_nll(0.0, w, 10.0, alpha)
            assert lo > 0 and hi > 0
            return lo / (lo + hi)

        for w in (0.0, 0.5):
            assert share(0.3, w) > share(0.5, w) > share(1.0, w)

    def test_config_validation(self):
        # the alpha exponent is a model setting; the quadrature its own
        with pytest.raises(ValueError):
            ModelConfig(num_items=2, num_users=1, alpha_exp=0.0)
        with pytest.raises(ValueError):
            ModelConfig(num_items=2, num_users=1, alpha_exp=1.2)
        with pytest.raises(ValueError):
            pp.QuadratureConfig(cutoff=-1)


def _generous_cutoff(s, w, q=1.0 - 1e-9):
    """Cutoff holding all but 1e-9 of the reachable mass, >= 20 means."""
    mass = oracles.total_mass(s, w)
    t_hi = float(oracles.inverse_cdf_from_s(min(q, mass - 1e-12), s, w))
    rough = pp.expected_return_time_from_s(s, w, pp.QuadratureConfig(t_hi))[0]
    return max(t_hi, 20.0 * rough)


class TestExpectedReturnTime:
    def test_rate_two_exponential_mean(self):
        q = pp.QuadratureConfig(cutoff=15.0)
        got = pp.expected_return_time_from_s(np.log(2.0), 0.0, q)[0]
        assert got == pytest.approx(0.5, rel=1e-3)

    def test_truncated_exponential_exact(self):
        q = pp.QuadratureConfig(cutoff=10.0)
        got = pp.expected_return_time_from_s(0.0, 0.0, q)[0]
        want = 1.0 - 11.0 * np.exp(-10.0)
        assert got == pytest.approx(want, abs=1e-4)

    def test_monte_carlo_cross_check(self):
        s, w = -0.5, 0.3
        rng = np.random.default_rng(7)
        draws = oracles.inverse_cdf_from_s(rng.random(100_000), s, w)
        quad = pp.expected_return_time_from_s(s, w, pp.QuadratureConfig(_generous_cutoff(s, w)))[0]
        assert quad == pytest.approx(float(draws.mean()), rel=0.01)

    def test_batched_rows_match_scalar(self):
        q = pp.QuadratureConfig(cutoff=20.0)
        ss = np.array([-0.5, 0.0, 0.8])
        batch = pp.expected_return_time_from_s(ss, 0.2, q)
        for i, s in enumerate(ss):
            assert batch[i] == pytest.approx(
                pp.expected_return_time_from_s(s, 0.2, q)[0], rel=1e-12)

    @pytest.mark.parametrize("w", [0.0, 0.2])
    @pytest.mark.parametrize("alpha", [1.0, 0.5])
    def test_batch_position_does_not_move_a_row(self, w, alpha):
        # the quadrature sums each row on its own, so predict (one row) and
        # evaluate (many) read the same state out to the same bits
        q = pp.QuadratureConfig(cutoff=30.0)
        ss = np.linspace(-6.0, 6.0, 600)
        batch = pp.expected_return_time_from_s(ss, w, q, alpha)
        rows = np.array([pp.expected_return_time_from_s(s, w, q, alpha)[0] for s in ss])
        assert np.array_equal(batch, rows)

    def test_overflow_detected(self):
        with pytest.raises(pp.ExponentOverflowError, match="diverged"):
            pp.expected_return_time_from_s(800.0, 0.0, pp.QuadratureConfig(30.0))
        with pytest.raises(pp.ExponentOverflowError):
            pp.expected_return_time_from_s(0.0, 8.0, pp.QuadratureConfig(100.0))


# Return rates from one a month to one every 30 s, against a 30-day cutoff
RATES_PER_DAY = [0.03, 0.3, 1.0, 10.0, 100.0, 1000.0, 3000.0]


def _truncated_exponential_mean(rate, cutoff):
    """E[T; T < c] for T ~ Exp(rate): (1 - exp(-rc)(1 + rc)) / r."""
    rc = rate * cutoff
    return -(np.expm1(-rc) + rc * np.exp(-rc)) / rate


def _quantile_reference(s, w, cutoff, n=2_000_000):
    """E[T; T < c] = int_0^F(c) Q(u) du by the midpoint rule on the oracle
    quantile function: no compensator and no quadrature in t."""
    top = float(oracles.cdf_from_s(cutoff, s, w))
    u = (np.arange(n) + 0.5) * (top / n)
    return float(oracles.inverse_cdf_from_s(u, s, w).mean()) * top


class TestTruncatedMean:
    CUTOFF = 30.0

    @pytest.mark.parametrize("rate", RATES_PER_DAY)
    def test_head_rate_sweep_matches_closed_form(self, rate):
        got = pp.expected_return_time_from_s(np.log(rate), 0.0,
                                             pp.QuadratureConfig(self.CUTOFF))[0]
        want = _truncated_exponential_mean(rate, self.CUTOFF)
        assert abs(got - want) <= 1e-9 * want

    @pytest.mark.parametrize("rate", RATES_PER_DAY)
    def test_poisson_hawkes_rate_sweep_matches_closed_form(self, rate):
        p = HawkesParams(gamma0=rate, excitation=0.0, decay=1.0)
        got = hawkes_predict_next([np.array([0.0, 0.5, 0.9])], [p],
                                  pp.QuadratureConfig(self.CUTOFF), [[-1]])[0]
        want = _truncated_exponential_mean(rate, self.CUTOFF)
        assert abs(got - want) <= 1e-9 * want

    @pytest.mark.parametrize("rate, w", [
        (2.0, 0.3), (2.0, -0.3), (50.0, -0.05), (0.05, 0.1), (0.05, -0.01),
        (300.0, 0.02), (3000.0, -5.0), (0.5, -1.0),
    ])
    def test_decay_matches_quantile_reference(self, rate, w):
        # for w < 0 the density is defective: the mean covers the mass
        # that returns before the cutoff and nothing else
        s = np.log(rate)
        got = pp.expected_return_time_from_s(s, w, pp.QuadratureConfig(self.CUTOFF))[0]
        want = _quantile_reference(s, w, self.CUTOFF)
        assert got == pytest.approx(want, rel=1e-6)

    def test_excited_hawkes_matches_thinning_draws(self):
        p = HawkesParams(gamma0=2.0, excitation=30.0, decay=40.0)
        history = np.array([0.0, 0.3, 0.31, 0.315])
        got = hawkes_predict_next([history], [p], pp.QuadratureConfig(self.CUTOFF), [[-1]])[0]
        draws = oracles.sample_next_gaps(history, p, np.random.default_rng(4), 100_000)
        # every draw lands inside the cutoff, so the two means agree to
        # sampling error; allow four standard errors
        assert draws.max() < self.CUTOFF
        assert abs(got - draws.mean()) <= 4.0 * draws.std() / np.sqrt(draws.size)
        poisson = hawkes_predict_next([history], [HawkesParams(2.0, 0.0, 40.0)],
                                      pp.QuadratureConfig(self.CUTOFF), [[-1]])[0]
        assert got < 0.5 * poisson

    @pytest.mark.parametrize("s", [-700.0, -300.0, -50.0, -10.0, 0.0, 5.0, 8.0])
    @pytest.mark.parametrize("w", [0.0, 1e-7, 0.3, -0.3, -5.0])
    def test_finite_and_non_negative_wherever_the_guard_admits(self, s, w):
        # at s = -700 both terms of int exp(-Lam) - c exp(-Lam(c)) are c to
        # rounding; the mean itself is about exp(s) c^2 / 2
        got = pp.expected_return_time_from_s(s, w, pp.QuadratureConfig(self.CUTOFF))[0]
        assert np.isfinite(got) and 0.0 <= got <= self.CUTOFF
        if s <= -50.0 and w == 0.0:
            assert got == pytest.approx(np.exp(s) * self.CUTOFF ** 2 / 2.0, rel=1e-9)

    def test_batch_axes_kept(self):
        lam = np.array([[1.0], [4.0]])
        got = pp.truncated_mean(lambda t: lam * t, 3.0)
        assert got.shape == (2,)
        want = [_truncated_exponential_mean(r, 3.0) for r in (1.0, 4.0)]
        assert got == pytest.approx(want, rel=1e-12)

    def test_node_count_is_the_rule(self):
        calls = []
        pp.truncated_mean(lambda t: calls.append(t.size) or t, 1.0)
        assert calls == [pp.QuadratureConfig.num_points + 1]  # the nodes and c
        assert pp.QuadratureConfig.num_points == 192
        assert [f.name for f in dataclasses.fields(pp.QuadratureConfig)] == ["cutoff"]


class TestCdfSampling:
    @given(st.floats(min_value=-2, max_value=2),
           st.floats(min_value=-0.5, max_value=1.0),
           st.floats(min_value=0.001, max_value=0.995))
    @settings(max_examples=120, deadline=None)
    def test_quantile_roundtrip(self, s, w, u):
        if u >= oracles.total_mass(s, w) - 1e-9:
            return
        t = float(oracles.inverse_cdf_from_s(u, s, w))
        assert t >= 0
        assert float(oracles.cdf_from_s(t, s, w)) == pytest.approx(u, abs=1e-9)

    def test_defective_mass_formula(self):
        # s = 0, w = -1: reachable mass is 1 - exp(-1)
        assert oracles.total_mass(0.0, -1.0) == pytest.approx(1.0 - np.exp(-1.0))
        assert oracles.total_mass(0.0, 0.5) == 1.0
        assert oracles.total_mass(0.3, 0.0) == 1.0

    def test_sampling_defective_density_raises(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="defective"):
            oracles.inverse_cdf_from_s(rng.random(1000), 0.0, -1.0)

    def test_cdf_monotone_in_t(self):
        t = np.linspace(0, 30, 200)
        for w in (-0.02, 0.0, 0.4):
            c = oracles.cdf_from_s(t, 0.1, w)
            assert np.all(np.diff(c) >= 0) and c[0] == 0.0


def _lower_gamma(a, z):
    """gamma(a, z) from its series z^a e^-z sum_k z^k / (a (a+1) ... (a+k)),
    each term formed in logs so that a large z cannot overflow."""
    k = np.arange(int(z + 30.0 * math.sqrt(z) + 200))
    log_terms = (a + k) * math.log(z) - z - np.cumsum(np.log(a + k))
    return math.fsum(np.exp(log_terms))


def _dense_reference(s, w, alpha, cutoff, n=400_001, depth=60.0):
    """E[G; G < c] = int_0^c exp(-Lam(t)) * -expm1(Lam(t) - Lam(c)) dt for the
    gap compensator Lam(t) = e^s expm1(w t^alpha) / w, by composite Simpson
    in y = log(c / t) over [0, depth]; what lies below c e^-depth is < 1e-25."""
    y = np.linspace(0.0, depth, n)
    t = cutoff * np.exp(-y)
    lam_t, lam_c = (np.exp(s) * np.expm1(w * x ** alpha) / w for x in (t, cutoff))
    f = np.exp(-lam_t) * -np.expm1(lam_t - lam_c) * t  # dt = t dy
    return (y[1] - y[0]) / 3.0 * (f[0] + f[-1] + 4.0 * f[1:-1:2].sum() + 2.0 * f[2:-1:2].sum())


class TestAlphaReadOut:
    """The head models x = g^alpha with x exponential-intensity; the read-out
    is E[g; g < c] in model units (days), from 1 minute to 10 days."""

    CUTOFF = 30.0
    ALPHAS = [0.3, 0.5, 0.7, 1.0]
    MEAN_GAPS = [1.0 / 1440, 1.0 / 24, 1.0, 10.0]  # days

    @staticmethod
    def _rate(alpha, mean):
        # w = 0: x ~ Exp(rate), so E[g] = rate^(-1/alpha) Gamma(1 + 1/alpha)
        return (math.gamma(1.0 + 1.0 / alpha) / mean) ** alpha

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("mean", MEAN_GAPS)
    def test_weibull_matches_incomplete_gamma(self, alpha, mean):
        rate, a = self._rate(alpha, mean), 1.0 + 1.0 / alpha
        got = pp.expected_return_time_from_s(math.log(rate), 0.0,
                                             pp.QuadratureConfig(self.CUTOFF), alpha)[0]
        want = rate ** (-1.0 / alpha) * _lower_gamma(a, rate * self.CUTOFF ** alpha)
        assert got == pytest.approx(want, rel=1e-6)

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("mean", MEAN_GAPS)
    @pytest.mark.parametrize("w", [-1.0, 0.3])
    def test_decay_matches_dense_quadrature(self, alpha, mean, w):
        s = math.log(self._rate(alpha, mean))
        got = pp.expected_return_time_from_s(s, w, pp.QuadratureConfig(self.CUTOFF), alpha)[0]
        assert got == pytest.approx(_dense_reference(s, w, alpha, self.CUTOFF), rel=1e-6)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_references_agree_near_w_zero(self, alpha):
        # the dense rule at a tiny w against the series at w = 0
        rate, a = self._rate(alpha, 1.0), 1.0 + 1.0 / alpha
        want = rate ** (-1.0 / alpha) * _lower_gamma(a, rate * self.CUTOFF ** alpha)
        got = _dense_reference(math.log(rate), 1e-9, alpha, self.CUTOFF)
        assert got == pytest.approx(want, rel=1e-7)

    def test_overflow_guard_reads_the_transformed_cutoff(self):
        # s + w * c^alpha: 8 * 100 = 800 overflows, 8 * 100^0.3 ~ 32 does not
        q = pp.QuadratureConfig(100.0)
        with pytest.raises(pp.ExponentOverflowError):
            pp.expected_return_time_from_s(0.0, 8.0, q, 1.0)
        assert np.isfinite(pp.expected_return_time_from_s(0.0, 8.0, q, 0.3)[0])


class TestTimeNllOp:
    def _loss(self, s_val, w_val, g, masked=None):
        tape = Tape()
        s = Tensor(np.asarray(s_val, dtype=float).reshape(-1, 1))
        w = Tensor(np.asarray(w_val, dtype=float))
        out = pp.time_nll(tape, s, w, np.asarray(g, dtype=float),
                          masked=masked)
        return tape, s, w, out

    def test_value_matches_log_density(self):
        s_val = [0.3, -0.8]
        g = [1.5, 0.4]
        _, _, _, out = self._loss(s_val, 0.6, g)
        want = -sum(float(oracles.log_density_from_s(s, gg, 0.6)) for s, gg in zip(s_val, g))
        assert 2 * float(out.value) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("w_val", [0.7, -0.3, 0.0, 1e-7])
    def test_gradients_match_fd(self, w_val):
        rng = np.random.default_rng(3)
        s_val = rng.uniform(-1.5, 1.5, size=5)
        g = rng.uniform(0.05, 4.0, size=5)
        masked = np.array([False, False, True, False, False])
        tape, s, w, out = self._loss(s_val, w_val, g, masked=masked)
        tape.backward(out)

        def run():
            _, _, _, o = self._loss(s.value, float(w.value), g, masked=masked)
            return float(o.value)

        assert oracles.rel_error(s.grad, oracles.fd_gradient(run, s.value)) < 1e-4
        assert oracles.rel_error(w.grad, oracles.fd_gradient(run, w.value.reshape(()))) < 1e-4

    def test_w_gradient_matches_reference_form(self):
        # independent derivation: d nll/d w = -g + (c1/w^2) e^{gw} (gw - 1) + c2
        # with c1 = e^s and c2 = e^s / w^2
        s_val, w_val = 0.4, 0.8
        g = np.array([2.5])
        tape, s, w, out = self._loss([s_val], w_val, g)  # one row: mean = sum
        tape.backward(out)
        c1 = np.exp(s_val)
        c2 = np.exp(s_val) / w_val ** 2
        gw = g[0] * w_val
        want = -g[0] + (c1 / w_val ** 2) * np.exp(gw) * (gw - 1.0) + c2
        assert float(w.grad) == pytest.approx(want, rel=1e-12)

    def test_masked_rows_contribute_nothing(self):
        tape, s, w, out = self._loss([0.2, 50.0], 0.5, [1.0, 1e6],
                                     masked=np.array([False, True]))  # one live row: mean = sum
        tape.backward(out)
        assert float(out.value) == pytest.approx(
            -float(oracles.log_density_from_s(0.2, 1.0, 0.5)))
        assert s.grad[1, 0] == 0.0
        assert np.all(np.isfinite(w.grad))

    def test_all_masked_mean_zero(self):
        _, _, _, out = self._loss([1.0], 0.5, [2.0], masked=np.array([True]))
        assert float(out.value) == 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            self._loss([1.0, 2.0], 0.5, [1.0])
