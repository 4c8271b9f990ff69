"""Time-model checks: closed-form values, branch continuity, quadrature
against analytic and Monte Carlo oracles, and tape gradients."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from thrnn import point_process as pp
from thrnn.autodiff import Tape, Tensor
from thrnn.model import ModelConfig

import oracles


def _intensity(s, g, w, step=1e-5):
    """The intensity the density implies: d/dg log f(g) = w - lam(g), so
    lam = w minus a finite-difference slope of log_density_from_s
    (one-sided at g = 0, where the density is not defined below)."""
    lo = max(g - step, 0.0)
    hi = g + step
    slope = (pp.log_density_from_s(s, hi, w) - pp.log_density_from_s(s, lo, w)) / (hi - lo)
    return w - float(slope)


def _time_nll(s, w, g_alpha, masked=False):
    """time_nll's value for one row; g_alpha already carries the alpha power."""
    out = pp.time_nll(Tape(), Tensor([[s]]), Tensor(w), np.array([g_alpha]),
                      masked=np.array([masked]))
    return float(out.value)


class TestIntensity:
    def test_all_zero_gives_one(self):
        # s = v.h + b with v = 0, b = 0; f(0) equals the intensity at 0
        assert np.exp(pp.log_density_from_s(0.0, 0.0, 0.0)) == pytest.approx(1.0)
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
            pp.log_density_from_s(0.0, -1.0, 0.0)

    def test_overflow_detected(self):
        with pytest.raises(pp.ExponentOverflowError, match="diverged"):
            pp.log_density_from_s(1.0 * 800.0, 1.0, 0.0)
        with pytest.raises(pp.ExponentOverflowError):
            pp.log_density_from_s(0.0, 100.0, 8.0)


class TestLogDensity:
    def test_unit_rate_exponential(self):
        assert pp.log_density_from_s(0.0, 1.0, 0.0) == pytest.approx(-1.0)

    def test_closed_form_w_one(self):
        got = pp.log_density_from_s(0.0, 1.0, 1.0)
        assert got == pytest.approx(2.0 - np.e, abs=1e-12)

    def test_branch_continuity(self):
        # the exact expm1 form at w = 1e-7 and the limit branch differ by
        # O(w * g^2 * e^s / 2), comfortably below 1e-5 on this grid
        g = np.linspace(0.0, 5.0, 101)
        for s in (-1.0, 0.0, 1.0):
            exact = pp.log_density_from_s(s, g, 1e-7, branch="exact")
            limit = pp.log_density_from_s(s, g, 1e-7, branch="limit")
            assert np.max(np.abs(exact - limit)) < 1e-5

    def test_auto_branch_switches(self):
        lo = pp.log_density_from_s(0.3, 2.0, 1e-8)
        assert lo == pytest.approx(float(pp.log_density_from_s(0.3, 2.0, 0.0, branch="limit")))

    @given(st.floats(min_value=-2, max_value=2), st.floats(min_value=-1, max_value=1))
    @settings(max_examples=60, deadline=None)
    def test_normalization_when_proper(self, s, w):
        # for w < 0 part of the mass escapes to infinity; only draws whose
        # reachable mass is essentially 1 can integrate to 1 over any cutoff
        if oracles.total_mass(s, w) < 0.9999:
            return
        cutoff = _generous_cutoff(s, w)
        mass = oracles.density_mass_from_s(s, w, pp.QuadratureConfig(cutoff, 4096))[0]
        assert 0.99 <= mass <= 1.001

    def test_density_positive(self):
        logf = pp.log_density_from_s(-0.5, np.linspace(0, 10, 50), 0.7)
        assert np.all(np.isfinite(logf))
        # strictly positive wherever float64 can still represent it
        assert np.all(np.exp(pp.log_density_from_s(-0.5, np.linspace(0, 5, 50), 0.7)) > 0)


class TestTimeLoss:
    def test_alpha_one_is_plain_nll(self):
        s = float(np.dot([0.2, -0.1], [0.5, 1.0]) + 0.1)
        assert _time_nll(s, 0.4, 3.0 ** 1.0) == pytest.approx(
            -float(pp.log_density_from_s(s, 3.0, 0.4)))

    def test_closed_form_alpha_half(self):
        # g = 4 becomes g^0.5 = 2; with s = 0, w = 1 the nll is e^2 - 3
        got = _time_nll(0.0, 1.0, 4.0 ** 0.5)
        assert got == pytest.approx(np.exp(2.0) - 3.0, abs=1e-12)

    def test_masked_is_zero(self):
        assert _time_nll(0.0, 1.0, 5.0 ** 0.7, masked=True) == 0.0

    def test_shrinking_alpha_shifts_weight_to_short_gaps(self):
        # share of the total loss carried by the short gap grows as the
        # exponent shrinks (the long gap is compressed harder)
        def share(alpha, w):
            lo = _time_nll(0.0, w, 0.1 ** alpha)
            hi = _time_nll(0.0, w, 10.0 ** alpha)
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
            pp.QuadratureConfig(cutoff=10, num_points=32)
        with pytest.raises(ValueError):
            pp.QuadratureConfig(cutoff=-1)


def _generous_cutoff(s, w, q=1.0 - 1e-9):
    """Cutoff holding all but 1e-9 of the reachable mass, >= 20 means."""
    mass = oracles.total_mass(s, w)
    t_hi = float(oracles.inverse_cdf_from_s(min(q, mass - 1e-12), s, w))
    rough = pp.expected_return_time_from_s(s, w, pp.QuadratureConfig(t_hi, 2048))[0]
    return max(t_hi, 20.0 * rough)


class TestExpectedReturnTime:
    def test_rate_two_exponential_mean(self):
        q = pp.QuadratureConfig(cutoff=15.0, num_points=4096)
        got = pp.expected_return_time_from_s(np.log(2.0), 0.0, q)[0]
        assert got == pytest.approx(0.5, rel=1e-3)

    def test_truncated_exponential_exact(self):
        q = pp.QuadratureConfig(cutoff=10.0, num_points=2048)
        got = pp.expected_return_time_from_s(0.0, 0.0, q)[0]
        want = 1.0 - 11.0 * np.exp(-10.0)
        assert got == pytest.approx(want, abs=1e-4)

    def test_doubling_nodes_converged(self):
        s, w = -0.5, 0.3
        cutoff = _generous_cutoff(s, w)
        a = pp.expected_return_time_from_s(s, w, pp.QuadratureConfig(cutoff, 2048))[0]
        b = pp.expected_return_time_from_s(s, w, pp.QuadratureConfig(cutoff, 4096))[0]
        assert abs(b - a) / abs(b) < 1e-3

    def test_monte_carlo_cross_check(self):
        s, w = -0.5, 0.3
        rng = np.random.default_rng(7)
        draws = oracles.inverse_cdf_from_s(rng.random(100_000), s, w)
        quad = pp.expected_return_time_from_s(s, w, pp.QuadratureConfig(_generous_cutoff(s, w), 4096))[0]
        assert quad == pytest.approx(float(draws.mean()), rel=0.01)

    def test_batched_rows_match_scalar(self):
        q = pp.QuadratureConfig(cutoff=20.0, num_points=512)
        ss = np.array([-0.5, 0.0, 0.8])
        batch = pp.expected_return_time_from_s(ss, 0.2, q)
        for i, s in enumerate(ss):
            assert batch[i] == pytest.approx(
                pp.expected_return_time_from_s(s, 0.2, q)[0], rel=1e-12)


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
        want = -sum(float(pp.log_density_from_s(s, gg, 0.6)) for s, gg in zip(s_val, g))
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
            -float(pp.log_density_from_s(0.2, 1.0, 0.5)))
        assert s.grad[1, 0] == 0.0
        assert np.all(np.isfinite(w.grad))

    def test_all_masked_mean_zero(self):
        _, _, _, out = self._loss([1.0], 0.5, [2.0], masked=np.array([True]))
        assert float(out.value) == 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            self._loss([1.0, 2.0], 0.5, [1.0])
