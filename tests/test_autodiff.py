"""Gradient checks for the tape engine.

Every op is checked against central finite differences at random
points with the relative-error metric |a - f| / max(1, |a|, |f|).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from thrnn import autodiff as ad

import oracles

TOL = 1e-4


def _gradcheck(build, arrays, seed=0, n_points=10, tol=TOL):
    """build(tape, tensors) -> scalar Tensor; checks d(out)/d(each array)."""
    rng = np.random.default_rng(seed)
    for _ in range(n_points):
        tensors = [ad.Tensor(rng.normal(size=shape)) for shape in arrays]
        tape = ad.Tape()
        out = build(tape, tensors)
        tape.backward(out)

        def run():
            t2 = ad.Tape()
            return float(np.sum(build(t2, tensors).value))

        for t in tensors:
            fd = oracles.fd_gradient(run, t.value)
            an = t.grad if t.grad is not None else np.zeros_like(t.value)
            assert oracles.rel_error(an, fd) < tol


class TestCoreOps:
    def test_matmul(self):
        _gradcheck(lambda tp, ts: _total(tp, ad.matmul(tp, ts[0], ts[1])), [(3, 4), (4, 2)])

    def test_add_broadcast_bias(self):
        _gradcheck(lambda tp, ts: _total(tp, ad.add(tp, ts[0], ts[1])), [(3, 4), (4,)])

    def test_scale(self):
        _gradcheck(lambda tp, ts: _total(tp, ad.scale(tp, ts[0], -2.5)), [(4, 2)])

    def test_concat(self):
        _gradcheck(lambda tp, ts: _total(tp, ad.concat(tp, ts)), [(3, 2), (3, 4), (3, 1)])

    def test_linear(self):
        _gradcheck(lambda tp, ts: _total(tp, ad.matmul(tp, ts[0], ts[1], ts[2])),
                   [(3, 4), (4, 5), (5,)])

    def test_fanout_accumulates(self):
        # y = x@x + (x + x): x feeds four inputs, and their grads must sum
        rng = np.random.default_rng(1)
        x = ad.Tensor(rng.normal(size=(3, 3)))
        tape = ad.Tape()
        y = ad.add(tape, ad.matmul(tape, x, x), ad.add(tape, x, x))
        out = _total(tape, y)
        tape.backward(out)
        ones = np.ones((3, 3))
        np.testing.assert_allclose(x.grad, ones @ x.value.T + x.value.T @ ones + 2.0,
                                   rtol=1e-12)

    def test_matmul_with_bias_is_one_record(self):
        rng = np.random.default_rng(5)
        x, w, b = (ad.Tensor(rng.normal(size=s)) for s in ((3, 4), (4, 5), (5,)))
        tape = ad.Tape()
        out = ad.matmul(tape, x, w, b)
        assert len(tape) == 1
        np.testing.assert_array_equal(out.value, x.value @ w.value + b.value)

    def test_gather_rows(self):
        which, rows = np.array([0, 0, 1, 2, 2]), np.array([1, 0, 2, 2, 0])
        _gradcheck(lambda tp, ts: _total(tp, ad.gather_rows(tp, ts, which, rows)),
                   [(3, 2), (3, 2), (3, 2)])
        parts = [ad.Tensor(np.arange(6.0).reshape(3, 2) + 10 * k) for k in range(3)]
        out = ad.gather_rows(ad.Tape(), parts, which, rows)
        np.testing.assert_array_equal(
            out.value, np.stack([parts[k].value[r] for k, r in zip(which, rows)]))

    def test_no_gradient_aliases_another(self):
        # x feeds two matmuls; add hands the one g it receives to both of
        # them, and the embedding table is looked up twice
        rng = np.random.default_rng(6)
        x, w1, w2, table = (ad.Tensor(rng.normal(size=s))
                            for s in ((3, 4), (4, 2), (4, 2), (5, 3)))
        tape = ad.Tape()
        a, b = ad.matmul(tape, x, w1), ad.matmul(tape, x, w2)
        c = ad.add(tape, a, b)
        e = ad.concat(tape, [ad.embedding(tape, table, np.array([0, 2, 0])),
                             ad.embedding(tape, table, np.array([2, 4, 1]))])
        out = _total(tape, ad.concat(tape, [c, e]))
        tape.backward(out)
        ones = np.ones((3, 2))
        np.testing.assert_allclose(x.grad, ones @ w1.value.T + ones @ w2.value.T, rtol=1e-12)
        np.testing.assert_array_equal(a.grad, ones)
        np.testing.assert_array_equal(table.grad[:, 0], [2.0, 1.0, 2.0, 0.0, 1.0])
        # a backward that returns one fresh array for two inputs
        def same_for_both(g):
            d = 2.0 * g
            return d, d

        p, q = ad.Tensor(np.ones(2)), ad.Tensor(np.ones(2))
        tape = ad.Tape()
        twice = tape.record((p, q), ad.Tensor(p.value + q.value), same_for_both)
        tape.backward(twice)
        tensors = [x, w1, w2, table, a, b, c, e, out, p, q, twice]
        for i, t in enumerate(tensors):
            for u in tensors[i + 1:]:
                assert not np.shares_memory(t.grad, u.grad), (t, u)


class TestEmbedding:
    def test_lookup_and_scatter(self):
        table = ad.Tensor(np.arange(12, dtype=float).reshape(4, 3))
        tape = ad.Tape()
        out = ad.embedding(tape, table, np.array([1, 3, 1]))
        np.testing.assert_array_equal(out.value, table.value[[1, 3, 1]])
        tape.backward(_total(tape, out))
        # row 1 looked up twice -> gradient 2, row 3 once, rows 0/2 untouched
        expect = np.zeros((4, 3))
        expect[1] = 2.0
        expect[3] = 1.0
        np.testing.assert_array_equal(table.grad, expect)

    def test_out_of_range_raises(self):
        table = ad.Tensor(np.zeros((4, 3)))
        with pytest.raises(IndexError, match=r"\[0, 4\)"):
            ad.embedding(ad.Tape(), table, np.array([0, 4]))
        with pytest.raises(IndexError):
            ad.embedding(ad.Tape(), table, np.array([-1]))

    def test_gradcheck(self):
        idx = np.array([0, 2, 2, 1])
        _gradcheck(lambda tp, ts: _total(tp, ad.embedding(tp, ts[0], idx)), [(3, 4)])


class TestSoftmaxXent:
    def test_matches_direct_formula(self):
        rng = np.random.default_rng(2)
        v = rng.normal(size=(4, 6))
        tgt = np.array([0, 5, 2, 2])
        tape = ad.Tape()
        loss = ad.masked_softmax_xent(tape, ad.Tensor(v), tgt)
        probs = np.exp(v) / np.exp(v).sum(axis=1, keepdims=True)
        want = -np.mean(np.log(probs[np.arange(4), tgt]))
        assert loss.value == pytest.approx(4 * want, rel=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(3)
        v = rng.normal(size=(3, 5))
        tgt = np.array([1, 0, 4])
        a = ad.masked_softmax_xent(ad.Tape(), ad.Tensor(v), tgt).value
        b = ad.masked_softmax_xent(ad.Tape(), ad.Tensor(v + 1000.0), tgt).value
        assert abs(float(a) - float(b)) < 1e-10

    def test_masked_rows_no_loss_no_grad(self):
        rng = np.random.default_rng(4)
        v = rng.normal(size=(4, 5))
        tgt = np.array([0, 1, 2, 3])
        masked = np.array([False, True, False, True])

        scores = ad.Tensor(v)
        tape = ad.Tape()
        loss = ad.masked_softmax_xent(tape, scores, tgt, masked=masked)
        tape.backward(loss)
        assert np.all(scores.grad[masked] == 0.0)
        assert np.any(scores.grad[~masked] != 0.0)

        only = ad.masked_softmax_xent(ad.Tape(), ad.Tensor(v[~masked]), tgt[~masked]).value
        assert float(loss.value) == pytest.approx(float(only), rel=1e-12)

    def test_all_masked_mean_is_zero(self):
        v = np.zeros((2, 3))
        loss = ad.masked_softmax_xent(ad.Tape(), ad.Tensor(v), np.array([0, 1]),
                                      masked=np.array([True, True]))
        assert float(loss.value) == 0.0

    def test_gradcheck(self):
        tgt = np.array([1, 3, 0])
        masked = np.array([False, True, False])
        _gradcheck(lambda tp, ts: ad.masked_softmax_xent(tp, ts[0], tgt, masked=masked),
                   [(3, 5)])

    def test_target_out_of_range(self):
        with pytest.raises(IndexError):
            ad.masked_softmax_xent(ad.Tape(), ad.Tensor(np.zeros((1, 3))), np.array([3]))


def _random_gru(rng, n_in, n_h):
    # per-gate blocks drawn r, z, c (w, u, b each), packed [r|z|c]
    gates = [[rng.normal(scale=0.5, size=shape) for shape in ((n_in, n_h), (n_h, n_h), (n_h,))]
             for _ in "rzc"]
    return ad.GRUWeights(*(ad.Tensor(np.concatenate(blocks, axis=-1))
                           for blocks in zip(*gates)))


class TestGRUCell:
    def test_one_tape_record_per_step(self):
        rng = np.random.default_rng(4)
        w = _random_gru(rng, 3, 4)
        tape = ad.Tape()
        ad.gru_cell(tape, ad.Tensor(rng.normal(size=(2, 3))),
                    ad.Tensor(rng.normal(size=(2, 4))), w)
        assert len(tape) == 1
        ad.gru_cell(tape, ad.Tensor(rng.normal(size=(2, 3))),
                    ad.Tensor(rng.normal(size=(2, 4))), w,
                    update_mask=np.array([[True], [False]]))
        assert len(tape) == 2

    def test_gradcheck_all_weights(self):
        rng = np.random.default_rng(5)
        w = _random_gru(rng, 3, 4)
        x = ad.Tensor(rng.normal(size=(2, 3)))
        h0 = ad.Tensor(rng.normal(size=(2, 4)))
        params = w.tensors() + [x, h0]

        def run():
            tp = ad.Tape()
            return float(np.sum(_total(tp, ad.gru_cell(tp, x, h0, w)).value))

        tape = ad.Tape()
        out = _total(tape, ad.gru_cell(tape, x, h0, w))
        tape.backward(out)
        for p in params:
            fd = oracles.fd_gradient(run, p.value)
            assert oracles.rel_error(p.grad, fd) < TOL

    def test_gradcheck_with_frozen_rows(self):
        # two chained steps so the frozen rows' pass-through grad reaches
        # h0 through a second record; a weighted sum so every row counts
        rng = np.random.default_rng(12)
        w = _random_gru(rng, 3, 4)
        x = ad.Tensor(rng.normal(size=(4, 3)))
        h0 = ad.Tensor(rng.normal(size=(4, 4)))
        mask = np.array([[True], [False], [True], [False]])
        weights = ad.Tensor(rng.normal(size=(4, 4)))

        def build(tp):
            h1 = ad.gru_cell(tp, x, h0, w, update_mask=mask)
            h2 = ad.gru_cell(tp, x, h1, w, update_mask=~mask)
            return _total(tp, ad.matmul(tp, h2, weights))

        tape = ad.Tape()
        tape.backward(build(tape))
        for p in w.tensors() + [x, h0]:
            fd = oracles.fd_gradient(lambda: float(build(ad.Tape()).value.sum()), p.value)
            assert oracles.rel_error(p.grad, fd) < TOL

    def test_update_gate_zero_keeps_state(self):
        # huge negative z bias -> z ~ 0 -> h_new ~ h_prev
        rng = np.random.default_rng(6)
        w = _random_gru(rng, 3, 4)
        w.b.value[4:8] = -50.0  # the z block of b
        x = ad.Tensor(rng.normal(size=(2, 3)))
        h0 = ad.Tensor(rng.normal(size=(2, 4)))
        out = ad.gru_cell(ad.Tape(), x, h0, w)
        np.testing.assert_allclose(out.value, h0.value, atol=1e-12)

    def test_update_gate_one_takes_candidate(self):
        rng = np.random.default_rng(7)
        w = _random_gru(rng, 3, 4)
        w.b.value[4:8] = 50.0
        x = ad.Tensor(rng.normal(size=(2, 3)))
        h0 = ad.Tensor(rng.normal(size=(2, 4)))
        out = ad.gru_cell(ad.Tape(), x, h0, w)
        # with z ~ 1 the output is the candidate, which is bounded by tanh
        assert np.all(np.abs(out.value) <= 1.0)
        assert not np.allclose(out.value, h0.value)

    def test_update_mask_freezes_rows(self):
        rng = np.random.default_rng(8)
        w = _random_gru(rng, 3, 4)
        x = ad.Tensor(rng.normal(size=(3, 3)))
        h0 = ad.Tensor(rng.normal(size=(3, 4)))
        m = np.array([[1.0], [0.0], [1.0]])
        tape = ad.Tape()
        out = ad.gru_cell(tape, x, h0, w, update_mask=m)
        free = ad.gru_cell(ad.Tape(), x, h0, w)
        np.testing.assert_array_equal(out.value[1], h0.value[1])
        np.testing.assert_allclose(out.value[[0, 2]], free.value[[0, 2]], rtol=1e-12)
        # frozen row passes gradient straight through to h_prev
        tape.backward(_total_rows(tape, out, row=1))
        np.testing.assert_allclose(h0.grad[1], np.ones(4), rtol=1e-12)
        for wt in w.tensors():
            assert wt.grad is None or np.allclose(wt.grad, 0.0)

    def test_np_twin_matches_taped(self):
        rng = np.random.default_rng(9)
        w = _random_gru(rng, 5, 6)
        x = rng.normal(size=(4, 5))
        h0 = rng.normal(size=(4, 6))
        taped = ad.gru_cell(ad.Tape(), ad.Tensor(x), ad.Tensor(h0), w).value
        plain = ad.gru_cell_np(x, h0, w)
        np.testing.assert_array_equal(taped, plain)


class TestDropout:
    def test_rate_zero_is_identity(self):
        x = ad.Tensor(np.ones((3, 3)))
        out = ad.dropout(ad.Tape(), x, 0.0, np.random.default_rng(0))
        assert out is x

    def test_preserves_expectation(self):
        rng = np.random.default_rng(10)
        x = ad.Tensor(np.ones((200, 200)))
        out = ad.dropout(ad.Tape(), x, 0.3, rng)
        assert float(out.value.mean()) == pytest.approx(1.0, abs=0.02)

    def test_backward_uses_same_mask(self):
        rng = np.random.default_rng(11)
        x = ad.Tensor(np.ones((10, 10)))
        tape = ad.Tape()
        out = ad.dropout(tape, x, 0.5, rng)
        tape.backward(_total(tape, out))
        np.testing.assert_array_equal(x.grad, out.value)


@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=25, deadline=None)
def test_sigmoid_tanh_bounded_any_input(seed):
    # pre-activations of order ±1000 saturate every gate; the step must
    # stay finite and, from a state in [-1, 1], inside [-1, 1]
    rng = np.random.default_rng(seed)
    w = _random_gru(rng, 4, 4)
    for t in w.tensors():
        t.value *= 400.0
    x = ad.Tensor(rng.normal(scale=200.0, size=(4, 4)))
    h0 = ad.Tensor(rng.uniform(-1.0, 1.0, size=(4, 4)))
    tape = ad.Tape()
    out = ad.gru_cell(tape, x, h0, w)
    assert np.all(np.isfinite(out.value))
    assert np.all(np.abs(out.value) <= 1.0)
    tape.backward(_total(tape, out))
    assert all(np.all(np.isfinite(t.grad)) for t in w.tensors() + [x, h0])


def test_sigmoid_matches_where_form_bit_for_bit():
    v = np.concatenate([[0.0, -0.0, 745.0, -745.0, 746.0, -746.0, np.inf, -np.inf, np.nan],
                        np.linspace(-800.0, 800.0, 4001), np.geomspace(1e-320, 1e3, 500),
                        -np.geomspace(1e-320, 1e3, 500)])
    e = np.exp(-np.abs(v))
    with np.errstate(invalid="ignore"):
        want = np.where(v >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    got = ad._sigmoid_np(v)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_rel_error_metric():
    assert oracles.rel_error(np.array([1.0]), np.array([1.0])) == 0.0
    # small absolute error on small values uses the 1.0 floor
    assert oracles.rel_error(np.array([1e-6]), np.array([2e-6])) == pytest.approx(1e-6)
    assert oracles.rel_error(np.array([200.0]), np.array([100.0])) == pytest.approx(0.5)


# -- helpers ----------------------------------------------------------------

def _total(tape, t):
    """Reduce to a scalar by summing; weights each element equally."""
    if t.value.ndim == 0:
        return t
    if t.value.ndim == 1:
        return ad.matmul(tape, ad.Tensor(np.ones((1, t.value.shape[0]))), _vec_to_col(tape, t))
    ones_r = ad.Tensor(np.ones((1, t.value.shape[0])))
    ones_c = ad.Tensor(np.ones((t.value.shape[1], 1)))
    return ad.matmul(tape, ad.matmul(tape, ones_r, t), ones_c)


def _vec_to_col(tape, t):
    # reshape a vector to a column without a dedicated reshape op
    out = ad.Tensor(t.value[:, None])

    def bwd(g):
        return (g[:, 0],)

    return tape.record((t,), out, bwd)


def _total_rows(tape, t, row):
    """Sum only one row of a 2-D tensor."""
    sel = np.zeros((1, t.value.shape[0]))
    sel[0, row] = 1.0
    return ad.matmul(tape, ad.matmul(tape, ad.Tensor(sel), t),
                     ad.Tensor(np.ones((t.value.shape[1], 1))))
