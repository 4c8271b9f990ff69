"""Hawkes baseline: recursion vs naive sums, closed-form likelihood vs
quadrature, simulation-based recovery, and prediction cross-checks."""

import math

import numpy as np
import pytest
from scipy.optimize import minimize

from thrnn import hawkes as hk
from thrnn.point_process import QuadratureConfig

import oracles


def naive_intensity(t, history, p):
    """O(n) textbook sum, the oracle for the recursion."""
    history = np.asarray(history, dtype=float)
    return p.gamma0 + p.excitation * float(np.sum(np.exp(-p.decay * (t - history))))


class TestIntensity:
    def test_empty_history(self):
        p = hk.HawkesParams(1.3, 0.5, 2.0)
        assert oracles.hawkes_intensity(7.0, np.array([]), p) == 1.3

    def test_no_excitation(self):
        p = hk.HawkesParams(0.7, 0.0, 1.0)
        assert oracles.hawkes_intensity(5.0, np.array([1.0, 2.0]), p) == pytest.approx(0.7)

    def test_single_event_closed_form(self):
        p = hk.HawkesParams(1.0, 0.5, 1.0)
        got = oracles.hawkes_intensity(1.0, np.array([0.0]), p)
        assert got == pytest.approx(1.0 + 0.5 * math.exp(-1.0), abs=1e-12)

    def test_recursion_matches_naive(self):
        rng = np.random.default_rng(0)
        p = hk.HawkesParams(0.5, 0.8, 2.0)
        for n in (1, 10, 1000):
            history = np.sort(rng.uniform(0, 50, size=n))
            t = history[-1] + rng.uniform(0, 2)
            assert oracles.hawkes_intensity(t, history, p) == pytest.approx(
                naive_intensity(t, history, p), abs=1e-10)

    def test_before_last_event_rejected(self):
        p = hk.HawkesParams(1.0, 0.5, 1.0)
        with pytest.raises(ValueError):
            oracles.hawkes_intensity(0.5, np.array([0.0, 1.0]), p)


class TestNll:
    def test_poisson_closed_form(self):
        events = np.array([0.5, 1.5, 3.0, 4.0])
        p = hk.HawkesParams(1.7, 0.0, 1.0)
        want = -4 * math.log(1.7) + 1.7 * 5.0
        assert oracles.hawkes_nll(events, p, horizon=5.0) == pytest.approx(want, rel=1e-12)

    def test_poisson_mle_is_minimum(self):
        events = np.linspace(0.1, 10.0, 20)
        best = oracles.hawkes_nll(events, hk.HawkesParams(2.0, 0.0, 1.0), horizon=10.0)
        for g0 in (1.0, 1.5, 2.5, 4.0):
            assert oracles.hawkes_nll(events, hk.HawkesParams(g0, 0.0, 1.0), horizon=10.0) > best

    def test_compensator_matches_quadrature(self):
        rng = np.random.default_rng(1)
        events = np.sort(rng.uniform(0, 20, size=15))
        p = hk.HawkesParams(0.6, 0.9, 1.7)
        horizon = 22.0
        # integrate lambda piecewise between events so every piece is smooth
        knots = np.concatenate([[0.0], events, [horizon]])
        integral = 0.0
        for a, b in zip(knots[:-1], knots[1:]):
            ts = np.linspace(a, b, 4000)
            ys = [naive_intensity(t, events[events < a + 1e-12], p) if t == a
                  else naive_intensity(t, events[events < t], p) for t in ts]
            integral += np.trapezoid(ys, ts)
        log_term = sum(math.log(naive_intensity(t, events[:i], p))
                       for i, t in enumerate(events))
        want = -log_term + integral
        got = oracles.hawkes_nll(events, p, horizon=horizon)
        assert got == pytest.approx(want, rel=1e-6)

    def test_gradients_match_fd(self):
        rng = np.random.default_rng(2)
        events = np.sort(rng.uniform(0, 30, size=40))
        theta0 = np.array([0.8, 0.6, 1.4])
        _, grads = oracles.hawkes_nll_and_grads(events, *theta0, t_start=float(events[0]),
                                                horizon=float(events[-1]))
        eps = 1e-6
        for k in range(3):
            up, dn = theta0.copy(), theta0.copy()
            up[k] += eps
            dn[k] -= eps
            f_up, _ = oracles.hawkes_nll_and_grads(events, *up, t_start=float(events[0]),
                                                   horizon=float(events[-1]))
            f_dn, _ = oracles.hawkes_nll_and_grads(events, *dn, t_start=float(events[0]),
                                                   horizon=float(events[-1]))
            fd = (f_up - f_dn) / (2 * eps)
            assert grads[k] == pytest.approx(fd, rel=1e-5, abs=1e-7)

    def test_horizon_validation(self):
        p = hk.HawkesParams(1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            oracles.hawkes_nll(np.array([1.0, 3.0]), p, horizon=2.0)
        with pytest.raises(ValueError):
            oracles.hawkes_nll(np.array([3.0, 1.0]), p)


class TestSimulation:
    def test_deterministic_given_seed(self):
        p = hk.HawkesParams(0.5, 0.8, 2.0)
        a = oracles.simulate_thinning(p, 100, np.random.default_rng(5))
        b = oracles.simulate_thinning(p, 100, np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)
        assert np.all(np.diff(a) > 0)

    def test_long_run_rate(self):
        # stationary rate = gamma0 / (1 - branching ratio)
        p = hk.HawkesParams(0.5, 0.8, 2.0)
        events = oracles.simulate_thinning(p, 20000, np.random.default_rng(6))
        rate = len(events) / events[-1]
        assert rate == pytest.approx(0.5 / (1 - 0.4), rel=0.05)

    def test_explosive_rejected(self):
        with pytest.raises(ValueError, match="branching"):
            oracles.simulate_thinning(hk.HawkesParams(1.0, 3.0, 2.0), 10,
                                 np.random.default_rng(0))

    def test_true_params_beat_perturbed(self):
        p = hk.HawkesParams(0.5, 0.8, 2.0)
        wins = 0
        for seed in range(10):
            events = oracles.simulate_thinning(p, 800, np.random.default_rng(seed))
            events -= events[0]
            base = oracles.hawkes_nll(events, p)
            pert = hk.HawkesParams(0.75, 1.2, 3.0)
            wins += oracles.hawkes_nll(events, pert) > base
        assert wins >= 9


def _ragged_batch(lengths, seed):
    """Windows of the given lengths (longest first) at a large absolute
    offset, as real timelines have, padded for the batched evaluator."""
    rng = np.random.default_rng(seed)
    windows = [18000.0 + np.sort(rng.uniform(0, 50, size=n)) for n in lengths]
    params = np.column_stack([rng.uniform(0.3, 1.5, len(lengths)),
                              rng.uniform(0.1, 0.8, len(lengths)),
                              rng.uniform(0.8, 3.0, len(lengths))])
    return windows, params


class TestBatchedEvaluator:
    # chunk edges at 32 events: one short of, at and one past a chunk
    LENGTHS = (101, 33, 32, 31, 2, 1)

    def test_matches_scalar_recursion(self):
        windows, params = _ragged_batch(self.LENGTHS, seed=20)
        nll, grad, _ = hk._nll_and_grads(params, hk._geometry(*hk._pad(windows)))
        for w, p, got_nll, got_grad in zip(windows, params, nll, grad):
            want_nll, want_grad = oracles.hawkes_nll_and_grads(w, *p, t_start=float(w[0]),
                                                               horizon=float(w[-1]))
            np.testing.assert_allclose(got_nll, want_nll, rtol=1e-10, atol=0)
            np.testing.assert_allclose(got_grad, want_grad, rtol=1e-10, atol=0)

    def test_hessian_matches_central_differences(self):
        windows, params = _ragged_batch(self.LENGTHS, seed=21)
        geometry = hk._geometry(*hk._pad(windows))
        _, _, hess = hk._nll_and_grads(params, geometry)
        eps = 1e-6
        fd = np.empty_like(hess)
        for k in range(3):
            up, dn = params.copy(), params.copy()
            up[:, k] += eps
            dn[:, k] -= eps
            fd[:, :, k] = (hk._nll_and_grads(up, geometry)[1]
                           - hk._nll_and_grads(dn, geometry)[1]) / (2 * eps)
        for h, f in zip(hess, fd):
            np.testing.assert_allclose(h, f, rtol=1e-6, atol=1e-7 * np.abs(h).max())

    def test_taken_geometry_is_exact(self):
        # every longest-first subset of rows, evaluated on the rows it takes
        # from the batch's geometry, gives the batch's own numbers bit for bit
        windows, params = _ragged_batch(self.LENGTHS, seed=22)
        geometry = hk._geometry(*hk._pad(windows))
        full = hk._nll_and_grads(params, geometry)
        for mask in range(1, 2 ** len(self.LENGTHS)):
            rows = np.flatnonzero([mask >> k & 1 for k in range(len(self.LENGTHS))])
            got = hk._nll_and_grads(params[rows], hk._take(geometry, rows))
            for g, f in zip(got, full):
                np.testing.assert_array_equal(g, f[rows])

    def test_fit_evaluates_on_the_live_rows_geometry(self, monkeypatch):
        # the fit takes the live rows' geometry as users converge; each call
        # must give what a geometry built from its own rows gives
        windows, _ = _ragged_batch(self.LENGTHS, seed=23)
        real, batch_rows = hk._nll_and_grads, set()
        window_of = {w[-1] - w[0]: w for w in windows}  # every window spans apart

        def checked(params, geometry):
            got = real(params, geometry)
            own = hk._geometry(*hk._pad([window_of[span] for span in geometry[-1]]))
            for g, f in zip(got, real(params, own)):
                np.testing.assert_array_equal(g, f)
            batch_rows.add(len(params))
            return got

        monkeypatch.setattr(hk, "_nll_and_grads", checked)
        hk.fit(windows[:-1], hk.FitConfig())  # the 1-event window needs a fallback rate
        assert len(batch_rows) >= 3  # the live rows shrank at least twice


def _projected_log_grad(events, p):
    """Log-space NLL gradient at p with its outward component on the
    branching-ratio cap removed, and the NLL; asserts the cap's multiplier
    is non-negative where p sits on it."""
    nll, grad = oracles.hawkes_nll_and_grads(events, p.gamma0, p.excitation, p.decay,
                                             t_start=float(events[0]),
                                             horizon=float(events[-1]))
    g = grad * np.array([p.gamma0, p.excitation, p.decay])
    if oracles.branching_ratio(p) > hk.MAX_BRANCHING * (1 - 1e-12):
        normal = np.array([0.0, 1.0, -1.0])
        assert g @ normal <= 0.0, "the cap must hold the optimum, not repel it"
        g = g - 0.5 * (g @ normal) * normal
    return g, nll


class TestFit:
    def test_poisson_data(self):
        rng = np.random.default_rng(7)
        events = np.cumsum(rng.exponential(0.5, size=1000))  # rate 2
        fitted = hk.fit([events], hk.FitConfig())[0]
        assert 1.8 <= fitted.gamma0 / (1 - oracles.branching_ratio(fitted)) <= 2.2
        assert fitted.excitation * oracles.branching_ratio(fitted) < 0.1

    def test_planted_recovery(self):
        true = hk.HawkesParams(0.5, 0.8, 2.0)
        events = oracles.simulate_thinning(true, 1500, np.random.default_rng(8))
        fitted = hk.fit([events], hk.FitConfig())[0]
        assert fitted.gamma0 == pytest.approx(true.gamma0, rel=0.25)
        assert fitted.excitation == pytest.approx(true.excitation, rel=0.25)
        assert fitted.decay == pytest.approx(true.decay, rel=0.25)
        assert oracles.branching_ratio(fitted) < 1.0

    def test_matches_reference_optimizer(self):
        # our Newton fit should reach the same optimum as a derivative-free
        # reference on the identical objective
        true = hk.HawkesParams(0.6, 0.5, 1.5)
        events = oracles.simulate_thinning(true, 600, np.random.default_rng(9))
        ours = hk.fit([events], hk.FitConfig())[0]

        def objective(theta):
            return oracles.hawkes_nll_and_grads(events, *np.exp(theta),
                                                t_start=float(events[0]),
                                                horizon=float(events[-1]))[0]

        ref = minimize(objective, np.log([0.5, 0.2, 1.0]), method="Nelder-Mead",
                       options={"xatol": 1e-8, "fatol": 1e-10, "maxiter": 2000})
        ours_nll = objective(np.log([ours.gamma0, ours.excitation, ours.decay]))
        assert ours_nll <= ref.fun + 1e-3 * (abs(ref.fun) + 1)

    def test_last_k_window(self):
        rng = np.random.default_rng(10)
        # first 200 events dense (rate 10), last 15 sparse (rate ~0.2):
        # a windowed fit must see only the sparse regime
        dense = np.cumsum(rng.exponential(0.1, size=200))
        sparse = dense[-1] + np.cumsum(rng.exponential(5.0, size=15))
        events = np.concatenate([dense, sparse])
        windowed = hk.fit([events], hk.FitConfig(window="last_k", last_k=15))[0]
        assert windowed.gamma0 / (1 - oracles.branching_ratio(windowed)) < 1.0
        full = hk.fit([events], hk.FitConfig())[0]
        assert full.gamma0 / (1 - oracles.branching_ratio(full)) > 1.0

    def test_fallback_poisson(self):
        got = hk.fit([np.array([5.0])], hk.FitConfig(), [0.25])[0]
        assert got == hk.HawkesParams(0.25, 0.0, 1.0)
        with pytest.raises(ValueError, match="fallback"):
            hk.fit([np.array([5.0])], hk.FitConfig())

    def test_first_order_optimal_inside_and_on_cap(self):
        # seed 0 fits inside the cap, seed 2 runs into it
        true = hk.HawkesParams(0.2, 1.96, 2.0)
        histories = [oracles.simulate_thinning(true, 400, np.random.default_rng(seed))
                     for seed in (0, 2)]
        inside, capped = hk.fit(histories, hk.FitConfig())
        assert oracles.branching_ratio(inside) < hk.MAX_BRANCHING - 1e-3
        assert oracles.branching_ratio(capped) == pytest.approx(hk.MAX_BRANCHING, rel=1e-12)
        for events, p in zip(histories, (inside, capped)):
            g, nll = _projected_log_grad(events, p)
            assert np.abs(g).max() <= 1e-6 * (abs(nll) + 1)

    def test_batch_matches_each_history_alone(self):
        true = hk.HawkesParams(0.5, 0.8, 2.0)
        histories = [oracles.simulate_thinning(true, n, np.random.default_rng(30 + n))
                     for n in (12, 150, 40, 3, 75)]
        for cfg in (hk.FitConfig(), hk.FitConfig(window="last_k", last_k=15)):
            together = hk.fit(histories, cfg)
            for events, p in zip(histories, together):
                alone = hk.fit([events], cfg)[0]
                window = events[-cfg.last_k:] if cfg.window == "last_k" else events
                assert oracles.hawkes_nll(window - window[0], p) == pytest.approx(
                    oracles.hawkes_nll(window - window[0], alone), rel=1e-9)

    def test_fallback_inside_mixed_batch(self):
        true = hk.HawkesParams(0.5, 0.8, 2.0)
        a = oracles.simulate_thinning(true, 60, np.random.default_rng(40))
        b = oracles.simulate_thinning(true, 25, np.random.default_rng(41))
        histories = [a, np.array([5.0]), b, np.array([3.0, 3.0, 3.0])]
        got = hk.fit(histories, hk.FitConfig(), [1.0, 0.25, 1.0, 0.5])
        assert got[1] == hk.HawkesParams(0.25, 0.0, 1.0)
        assert got[3] == hk.HawkesParams(0.5, 0.0, 1.0)
        for events, p in ((a, got[0]), (b, got[2])):
            assert p.excitation > 0.0
            assert oracles.hawkes_nll(events - events[0], p) == pytest.approx(
                oracles.hawkes_nll(events - events[0], hk.fit([events], hk.FitConfig())[0]),
                rel=1e-9)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            hk.FitConfig(window="sliding")
        with pytest.raises(ValueError):
            hk.FitConfig(last_k=0)
        with pytest.raises(ValueError):
            hk.HawkesParams(0.0, 0.1, 1.0)


class TestPredictNext:
    def test_poisson_mean_empty_history(self):
        p = hk.HawkesParams(0.5, 0.3, 1.0)
        got = hk.hawkes_predict_next([np.array([])], [p], QuadratureConfig(60.0), [[-1]])[0]
        assert got == pytest.approx(2.0, rel=1e-3)

    def test_no_excitation_ignores_history(self):
        p = hk.HawkesParams(2.0, 0.0, 1.0)
        q = QuadratureConfig(20.0)
        a = hk.hawkes_predict_next([np.array([])], [p], q, [[-1]])[0]
        b = hk.hawkes_predict_next([np.array([0.0, 1.0, 2.0])], [p], q, [[-1]])[0]
        assert a == pytest.approx(0.5, rel=1e-3)
        assert a == pytest.approx(b, rel=1e-9)

    def test_matches_simulated_next_gap(self):
        p = hk.HawkesParams(0.5, 0.8, 2.0)
        history = oracles.simulate_thinning(p, 50, np.random.default_rng(11))
        quad = hk.hawkes_predict_next([history], [p], QuadratureConfig(40.0), [[-1]])[0]
        draws = oracles.sample_next_gaps(history, p, np.random.default_rng(12), 20000)
        assert quad == pytest.approx(float(draws.mean()), rel=0.03)

    def test_chosen_prefixes_of_many_histories(self):
        # one read-out over the prefixes `at` picks, history by history: each
        # is the prefix's own read-out, bit for bit, as the quadrature sums
        # each row on its own
        q = QuadratureConfig(40.0)
        ps = [hk.HawkesParams(0.5, 0.8, 2.0), hk.HawkesParams(1.5, 0.2, 0.7)]
        hs = [np.array([0.0, 0.1, 0.5, 2.0]), np.array([1.0, 3.0])]
        at = [np.array([4, 0, 2]), np.array([1])]
        got = hk.hawkes_predict_next(hs, ps, q, at)
        want = [hk.hawkes_predict_next([h[:k]], [p], q, [[-1]])[0]
                for h, p, ks in zip(hs, ps, at) for k in ks]
        np.testing.assert_array_equal(got, want)
        assert hk.hawkes_predict_next([], [], q, []).shape == (0,)

    def test_excited_history_shortens_wait(self):
        p = hk.HawkesParams(0.5, 0.8, 2.0)
        q = QuadratureConfig(40.0)
        recent = np.array([0.0, 0.1, 0.2, 0.3])
        cold = hk.hawkes_predict_next([np.array([])], [p], q, [[-1]])[0]
        hot = hk.hawkes_predict_next([recent], [p], q, [[-1]])[0]
        assert hot < cold
