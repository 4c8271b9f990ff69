"""Gradient checks for the tape engine.

Every op is checked against central finite differences at random
points with the relative-error metric |a - f| / max(1, |a|, |f|).
"""

import tracemalloc

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
        rows = np.array([3, 0, 4])  # distinct, out of order, row 1 and 2 left out
        _gradcheck(lambda tp, ts: _total(tp, ad.gather_rows(tp, ts[0], rows)), [(5, 2)])
        a = ad.Tensor(np.arange(10.0).reshape(5, 2))
        np.testing.assert_array_equal(ad.gather_rows(ad.Tape(), a, rows).value, a.value[rows])

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
        loss = oracles.masked_softmax_xent(tape, ad.Tensor(v), tgt)
        probs = np.exp(v) / np.exp(v).sum(axis=1, keepdims=True)
        want = -np.mean(np.log(probs[np.arange(4), tgt]))
        assert loss.value == pytest.approx(4 * want, rel=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(3)
        v = rng.normal(size=(3, 5))
        tgt = np.array([1, 0, 4])
        a = oracles.masked_softmax_xent(ad.Tape(), ad.Tensor(v), tgt).value
        b = oracles.masked_softmax_xent(ad.Tape(), ad.Tensor(v + 1000.0), tgt).value
        assert abs(float(a) - float(b)) < 1e-10

    def test_masked_rows_no_loss_no_grad(self):
        rng = np.random.default_rng(4)
        v = rng.normal(size=(4, 5))
        tgt = np.array([0, 1, 2, 3])
        masked = np.array([False, True, False, True])

        scores = ad.Tensor(v)
        tape = ad.Tape()
        loss = oracles.masked_softmax_xent(tape, scores, tgt, masked=masked)
        tape.backward(loss)
        assert np.all(scores.grad[masked] == 0.0)
        assert np.any(scores.grad[~masked] != 0.0)

        only = oracles.masked_softmax_xent(ad.Tape(), ad.Tensor(v[~masked]), tgt[~masked]).value
        assert float(loss.value) == pytest.approx(float(only), rel=1e-12)

    def test_all_masked_mean_is_zero(self):
        v = np.zeros((2, 3))
        loss = oracles.masked_softmax_xent(ad.Tape(), ad.Tensor(v), np.array([0, 1]),
                                      masked=np.array([True, True]))
        assert float(loss.value) == 0.0

    def test_gradcheck(self):
        tgt = np.array([1, 3, 0])
        masked = np.array([False, True, False])
        _gradcheck(lambda tp, ts: oracles.masked_softmax_xent(tp, ts[0], tgt, masked=masked),
                   [(3, 5)])

    def test_target_out_of_range(self):
        with pytest.raises(IndexError):
            oracles.masked_softmax_xent(ad.Tape(), ad.Tensor(np.zeros((1, 3))), np.array([3]))


class TestFusedSoftmaxXent:
    """The fused projection and softmax against oracles.chunked_softmax_xent,
    the gather, matmul, score op and add chain it replaced."""

    @staticmethod
    def _inputs(rows, items=7, h=4, seed=5):
        rng = np.random.default_rng(seed)
        return (rng.normal(size=(rows, h)), rng.normal(size=(h, items)),
                rng.normal(size=items), rng.integers(items, size=rows))

    @staticmethod
    def _loss_and_grads(op, x, w, b, tgt, block):
        ts = [ad.Tensor(a.copy()) for a in (x, w, b)]
        tape = ad.Tape()
        # a non-unit incoming gradient, so that the backward's scaling counts
        loss = ad.scale(tape, op(tape, *ts, tgt, block), 0.37)
        tape.backward(loss)
        return float(loss.value), [t.grad for t in ts], len(tape)

    @pytest.mark.parametrize("rows", [3, 5, 16])  # < block, = block, 3 * block + 1
    def test_matches_chunked_chain(self, rows):
        args = self._inputs(rows)
        got_loss, got, records = self._loss_and_grads(ad.masked_softmax_xent, *args, 5)
        want_loss, want, _ = self._loss_and_grads(oracles.chunked_softmax_xent, *args, 5)
        assert records == 2  # the fused op and the scale
        assert got_loss == pytest.approx(want_loss, rel=1e-12)
        for name, a, b in zip(("dx", "dw", "db"), got, want):
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max(), name

    @pytest.mark.parametrize("strip", [1, 3, 7])
    def test_column_strips_match_chunked_chain(self, strip, monkeypatch):
        # later blocks add x_bᵀ·e_b into dw in strips of `strip` of the 7 items
        monkeypatch.setattr(ad, "STRIP", strip)
        args = self._inputs(16)
        got_loss, got, _ = self._loss_and_grads(ad.masked_softmax_xent, *args, 5)
        want_loss, want, _ = self._loss_and_grads(oracles.chunked_softmax_xent, *args, 5)
        assert got_loss == pytest.approx(want_loss, rel=1e-12)
        for name, a, b in zip(("dx", "dw", "db"), got, want):
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max(), name

    def test_gradcheck(self):
        tgt = np.array([1, 3, 0, 3, 2])
        _gradcheck(lambda tp, ts: ad.masked_softmax_xent(tp, *ts, tgt, 2),
                   [(5, 3), (3, 4), (4,)])

    def test_bias_shift_invariance(self):
        x, w, b, tgt = self._inputs(7)
        a = ad.masked_softmax_xent(ad.Tape(), ad.Tensor(x), ad.Tensor(w), ad.Tensor(b), tgt, 3)
        c = ad.masked_softmax_xent(ad.Tape(), ad.Tensor(x), ad.Tensor(w),
                                   ad.Tensor(b + 1000.0), tgt, 3)
        assert abs(float(a.value) - float(c.value)) < 1e-10

    @pytest.mark.parametrize("bad", [7, -1])
    def test_target_out_of_range(self, bad):
        x, w, b, tgt = self._inputs(4)
        tgt[2] = bad
        with pytest.raises(IndexError):
            ad.masked_softmax_xent(ad.Tape(), ad.Tensor(x), ad.Tensor(w), ad.Tensor(b), tgt, 3)

    def test_peak_memory_is_one_block(self):
        """No scores array outlives its block: the peak is one (block, items)
        buffer and three (h, items) arrays, far below all rows' scores."""
        rows, items, h, block = 300, 20_000, 8, 50
        x, w, b, tgt = self._inputs(rows, items, h)
        x, w, b = ad.Tensor(x), ad.Tensor(w), ad.Tensor(b)
        tracemalloc.start()
        try:
            tape = ad.Tape()
            tape.backward(ad.masked_softmax_xent(tape, x, w, b, tgt, block))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < block * items * 8 + 3 * h * items * 8 + 2**20


def _random_gru(rng, n_in, n_h):
    # per-gate blocks drawn r, z, c (w, u, b each), packed [r|z|c]
    gates = [[rng.normal(scale=0.5, size=shape) for shape in ((n_in, n_h), (n_h, n_h), (n_h,))]
             for _ in "rzc"]
    return ad.GRUWeights(*(ad.Tensor(np.concatenate(blocks, axis=-1))
                           for blocks in zip(*gates)))


class TestGRUCell:
    def test_one_tape_record_per_unroll(self):
        rng = np.random.default_rng(4)
        w = _random_gru(rng, 3, 4)
        tape = ad.Tape()
        ad.gru_cell(tape, ad.Tensor(rng.normal(size=(2, 3))),
                    ad.Tensor(rng.normal(size=(2, 4))), w, [2])
        assert len(tape) == 1
        ad.gru_cell(tape, ad.Tensor(rng.normal(size=(6, 3))),
                    ad.Tensor(rng.normal(size=(3, 4))), w, [3, 2, 1], last=True)
        assert len(tape) == 2

    def test_gradcheck_all_weights(self):
        rng = np.random.default_rng(5)
        w = _random_gru(rng, 3, 4)
        x = ad.Tensor(rng.normal(size=(2, 3)))
        h0 = ad.Tensor(rng.normal(size=(2, 4)))
        params = w.tensors() + [x, h0]

        def run():
            tp = ad.Tape()
            return float(np.sum(_total(tp, ad.gru_cell(tp, x, h0, w, [2])).value))

        tape = ad.Tape()
        out = _total(tape, ad.gru_cell(tape, x, h0, w, [2]))
        tape.backward(out)
        for p in params:
            fd = oracles.fd_gradient(run, p.value)
            assert oracles.rel_error(p.grad, fd) < TOL

    @pytest.mark.parametrize("live, last", [
        ([4, 3, 3, 1], False),  # row 4 takes no step
        ([4, 2, 2, 1], True),
        ([], True),  # a history window of 0
        ([], False),  # a batch with no rec steps
    ])
    def test_gradcheck_ragged_live_rows(self, live, last):
        # a weighted sum so that every row and step counts; rows past a
        # step's live count pass their state and its gradient through
        rng = np.random.default_rng(12)
        w = _random_gru(rng, 3, 4)
        x = ad.Tensor(rng.normal(size=(sum(live), 3)))
        h0 = ad.Tensor(rng.normal(size=(5, 4)))
        weights = ad.Tensor(rng.normal(size=(4, 4)))

        def build(tp):
            out = ad.gru_cell(tp, x, h0, w, live, last=last)
            assert out.value.shape == ((5, 4) if last else (sum(live), 4))
            return _total(tp, ad.matmul(tp, out, weights))

        tape = ad.Tape()
        tape.backward(build(tape))
        for p in w.tensors() + ([x] if live else []) + [h0]:
            fd = oracles.fd_gradient(lambda: float(build(ad.Tape()).value.sum()), p.value)
            got = np.zeros_like(p.value) if p.grad is None else p.grad
            assert oracles.rel_error(got, fd) < TOL

    def test_matches_per_step_oracle(self):
        # the packed unroll against oracles.gru_cell stepping all rows with
        # an update mask: same states and gradients up to rounding
        rng = np.random.default_rng(13)
        w = _random_gru(rng, 3, 4)
        live = [5, 4, 4, 2, 1]
        x = ad.Tensor(rng.normal(size=(sum(live), 3)))
        h0 = ad.Tensor(rng.normal(size=(6, 4)))
        weights = ad.Tensor(rng.normal(size=(4, 4)))
        grads = []
        for packed in (True, False):
            tape = ad.Tape()
            if packed:
                out = ad.gru_cell(tape, x, h0, w, live, last=True)
            else:
                out, lo = h0, 0
                for k in live:
                    xs = np.zeros((6, 3))
                    xs[:k] = x.value[lo:lo + k]
                    step = ad.Tensor(xs)
                    out = oracles.gru_cell(tape, step, out, w,
                                           update_mask=(np.arange(6) < k)[:, None])
                    lo += k
            tape.backward(_total(tape, ad.matmul(tape, out, weights)))
            grads.append((out.value.copy(), [p.grad.copy() for p in w.tensors() + [h0]]))
            for p in w.tensors() + [x, h0]:
                p.zero_grad()
        (got, got_g), (want, want_g) = grads
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)
        for g, wg in zip(got_g, want_g):
            assert oracles.rel_error(g, wg) < 1e-13

    def test_update_gate_zero_keeps_state(self):
        # huge negative z bias -> z ~ 0 -> h_new ~ h_prev
        rng = np.random.default_rng(6)
        w = _random_gru(rng, 3, 4)
        w.b.value[4:8] = -50.0  # the z block of b
        x = ad.Tensor(rng.normal(size=(2, 3)))
        h0 = ad.Tensor(rng.normal(size=(2, 4)))
        out = ad.gru_cell(ad.Tape(), x, h0, w, [2])
        np.testing.assert_allclose(out.value, h0.value, atol=1e-12)

    def test_update_gate_one_takes_candidate(self):
        rng = np.random.default_rng(7)
        w = _random_gru(rng, 3, 4)
        w.b.value[4:8] = 50.0
        x = ad.Tensor(rng.normal(size=(2, 3)))
        h0 = ad.Tensor(rng.normal(size=(2, 4)))
        out = ad.gru_cell(ad.Tape(), x, h0, w, [2])
        # with z ~ 1 the output is the candidate, which is bounded by tanh
        assert np.all(np.abs(out.value) <= 1.0)
        assert not np.allclose(out.value, h0.value)

    def test_rows_past_live_pass_through(self):
        rng = np.random.default_rng(8)
        w = _random_gru(rng, 3, 4)
        x = ad.Tensor(rng.normal(size=(2, 3)))
        h0 = ad.Tensor(rng.normal(size=(3, 4)))
        tape = ad.Tape()
        out = ad.gru_cell(tape, x, h0, w, [2], last=True)
        free = ad.gru_cell(ad.Tape(), x, ad.Tensor(h0.value[:2]), w, [2])
        np.testing.assert_array_equal(out.value[2], h0.value[2])
        np.testing.assert_array_equal(out.value[:2], free.value)
        # the row past the live count passes gradient straight through to h0
        tape.backward(_total_rows(tape, out, row=2))
        np.testing.assert_allclose(h0.grad[2], np.ones(4), rtol=1e-12)
        for wt in w.tensors():
            assert wt.grad is None or np.allclose(wt.grad, 0.0)

    def test_rejects_live_counts_that_do_not_pack(self):
        rng = np.random.default_rng(14)
        w = _random_gru(rng, 3, 4)
        x = ad.Tensor(rng.normal(size=(4, 3)))
        # counts that miss the row total, exceed h0's rows, go negative or grow
        for h_rows, live in ((3, [2, 1]), (3, [4]), (3, [5, -1]), (3, [1, 3])):
            with pytest.raises(ValueError, match="live counts"):
                ad.gru_cell(ad.Tape(), x, ad.Tensor(np.zeros((h_rows, 4))), w, live)

    def test_np_twin_matches_taped(self):
        # one formula: the unroll's states are gru_cell_np's, bit for bit,
        # given the same input projection, bias included, stepped in place
        rng = np.random.default_rng(9)
        w = _random_gru(rng, 5, 6)
        live = [4, 3, 1]
        x = rng.normal(size=(sum(live), 5))
        h = rng.normal(size=(4, 6))
        taped = ad.gru_cell(ad.Tape(), ad.Tensor(x), ad.Tensor(h), w, live).value
        step, lo, plain = w.step_form(), 0, []
        x_rz, x_c = _columns(step.project(x))
        for k in live:
            ad.gru_cell_np(x_rz[lo:lo + k], x_c[lo:lo + k], h[:k], step)
            plain.append(h[:k].copy())
            lo += k
        np.testing.assert_array_equal(taped, np.concatenate(plain))

    def test_step_form_once_per_record(self, monkeypatch):
        # the step form is built per unroll, never per step
        rng = np.random.default_rng(17)
        w = _random_gru(rng, 3, 4)
        built, real = [], ad.GRUWeights.step_form
        monkeypatch.setattr(ad.GRUWeights, "step_form",
                            lambda self: built.append(self) or real(self))
        tape = ad.Tape()
        ad.gru_cell(tape, ad.Tensor(rng.normal(size=(6, 3))),
                    ad.Tensor(rng.normal(size=(3, 4))), w, [3, 2, 1])
        assert built == [w]
        ad.gru_cell(tape, ad.Tensor(rng.normal(size=(8, 3))),
                    ad.Tensor(rng.normal(size=(2, 4))), w, [2] * 4, last=True)
        assert built == [w, w]


class TestStepForm:
    """The step kernel on the step form against the kernel it replaced, on
    unhalved weights: halving u's r/z block and the projection's r/z
    columns is exact, and so is the in-place blend."""

    @pytest.mark.parametrize("n", [32, 100])
    @pytest.mark.parametrize("rows", [1, 37])
    def test_states_equal_the_reference_bit_for_bit(self, n, rows):
        rng = np.random.default_rng(n + rows)
        w = _random_gru(rng, 24, n)
        x = rng.normal(size=(3 * rows, 24))
        h0 = rng.uniform(-1.0, 1.0, size=(rows, n))
        step = w.step_form()
        x_rz, x_c = _columns(step.project(x))
        xw = oracles.gru_project_reference(x, w)
        want, fresh, live = h0.copy(), h0.copy(), h0.copy()
        for lo in range(0, len(x), rows):
            want = oracles.gru_step_reference(xw[lo:lo + rows], want, w)
            fresh = ad.gru_cell_np(x_rz[lo:lo + rows], x_c[lo:lo + rows], fresh, step,
                                   out=np.empty_like(fresh))
            out = ad.gru_cell_np(x_rz[lo:lo + rows], x_c[lo:lo + rows], live, step)
            assert out is live  # in place by default
            np.testing.assert_array_equal(fresh, want)
            np.testing.assert_array_equal(live, want)

    def test_step_form_holds_the_exact_halves(self):
        rng = np.random.default_rng(18)
        w = _random_gru(rng, 5, 6)
        step = w.step_form()
        halves = np.repeat([2.0, 1.0], [12, 6])
        for got, cell in ((step.w, w.w.value), (step.b, w.b.value),
                          (np.concatenate([step.u_rz, step.u_c], axis=1), w.u.value)):
            assert np.array_equal(got * halves, cell) and not np.shares_memory(got, cell)
        assert step.u_rz.flags.c_contiguous and step.u_c.flags.c_contiguous
        x = rng.normal(size=(4, 5))
        assert np.array_equal(step.project(x) * halves, oracles.gru_project_reference(x, w))


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
    out = ad.gru_cell(tape, x, h0, w, [4])
    assert np.all(np.isfinite(out.value))
    assert np.all(np.abs(out.value) <= 1.0)
    tape.backward(_total(tape, out))
    assert all(np.all(np.isfinite(t.grad)) for t in w.tensors() + [x, h0])


def _gate(v, n=5):
    """The step kernel's r and z gates at pre-activations v: with h = 0,
    u = 0 and b = 0 the pre-activation is the input projection itself."""
    rows = -(-len(v) // n)
    pre = np.zeros(rows * n)
    pre[:len(v)] = v
    pre = pre.reshape(rows, n)
    x_rz = np.concatenate([pre, pre], axis=1)
    x_rz *= 0.5  # the step form's projection is halved in its r/z columns
    step = ad.GRUWeights(ad.Tensor(np.zeros((1, 3 * n))), ad.Tensor(np.zeros((n, 3 * n))),
                         ad.Tensor(np.zeros(3 * n))).step_form()
    rz = np.empty((rows, 2 * n))
    with np.errstate(invalid="ignore"):
        ad.gru_cell_np(x_rz, np.zeros((rows, n)), np.zeros((rows, n)), step, rz=rz)
    r, z = rz[:, :n].ravel()[:len(v)], rz[:, n:].ravel()[:len(v)]
    assert np.array_equal(r, z, equal_nan=True)
    return r


def test_gate_is_the_where_form_sigmoid_to_rounding():
    # σ(v) = 0.5·tanh(0.5·v) + 0.5 against the where form on its old grid:
    # exact at 0 and the infinities, NaN kept, never outside [0, 1]
    v = np.concatenate([[0.0, -0.0, 745.0, -745.0, 746.0, -746.0, np.inf, -np.inf, np.nan],
                        np.linspace(-800.0, 800.0, 4001), np.geomspace(1e-320, 1e3, 500),
                        -np.geomspace(1e-320, 1e3, 500),
                        np.random.default_rng(0).normal(scale=20.0, size=2000)])
    got = _gate(v)
    assert got[0] == 0.5 and got[1] == 0.5
    assert got[6] == 1.0 and got[7] == 0.0
    assert np.isnan(got[8]) and not np.isnan(np.delete(got, 8)).any()
    assert np.all((0.0 <= np.delete(got, 8)) & (np.delete(got, 8) <= 1.0))
    want = oracles.sigmoid(v)
    err = np.abs(np.delete(got - want, 8))
    assert err.max() <= 2.3e-16, err.max()


def test_gru_steps_leave_their_inputs_unmodified():
    # the walk hands gru_cell_np a prefix view of its running states and
    # steps it in place: those rows change, and nothing else does
    rng = np.random.default_rng(16)
    w = _random_gru(rng, 3, 4)
    big = rng.normal(size=(7, 4))
    x = rng.normal(size=(3, 3))
    step = w.step_form()
    x_rz, x_c = _columns(step.project(x))
    h_prev = big[2:5]
    before = [a.copy() for a in (big, x, x_rz, x_c, *(t.value for t in w.tensors()))]
    out = ad.gru_cell_np(x_rz, x_c, h_prev, step, out=np.empty_like(h_prev))
    for a, b in zip((big, x, x_rz, x_c, *(t.value for t in w.tensors())), before):
        np.testing.assert_array_equal(a, b)
    assert not any(np.shares_memory(out, a) for a in (big, x_rz, x_c))
    assert ad.gru_cell_np(x_rz, x_c, h_prev, step) is h_prev
    np.testing.assert_array_equal(big[2:5], out)
    np.testing.assert_array_equal(np.delete(big, [2, 3, 4], axis=0),
                                  np.delete(before[0], [2, 3, 4], axis=0))
    for a, b in zip((x, x_rz, x_c, *(t.value for t in w.tensors())), before[1:]):
        np.testing.assert_array_equal(a, b)
    # the taped unroll writes only its own arrays
    h0 = ad.Tensor(big[1:6])
    assert np.shares_memory(h0.value, big)
    xt = ad.Tensor(rng.normal(size=(9, 3)))
    before = [a.copy() for a in (big, xt.value, *(t.value for t in w.tensors()))]
    for last in (False, True):
        tape = ad.Tape()
        out = ad.gru_cell(tape, xt, h0, w, [4, 3, 2], last=last)
        tape.backward(_total(tape, out))
    for a, b in zip((big, xt.value, *(t.value for t in w.tensors())), before):
        np.testing.assert_array_equal(a, b)


def test_backward_runs_once_per_tape():
    # a second pass would add onto the first's intermediate gradients and
    # rescale the records' stored arrays, so it is refused
    rng = np.random.default_rng(9)
    w = _random_gru(rng, 3, 4)
    tape = ad.Tape()
    h = ad.gru_cell(tape, ad.Tensor(rng.normal(size=(4, 3))), ad.Tensor(rng.normal(size=(2, 4))),
                    w, [2, 2], last=True)
    loss = _total(tape, h)
    tape.backward(loss)
    first = w.u.grad.copy()
    with pytest.raises(RuntimeError, match="already ran on this tape"):
        tape.backward(loss)
    assert np.array_equal(w.u.grad, first)


def test_rel_error_metric():
    assert oracles.rel_error(np.array([1.0]), np.array([1.0])) == 0.0
    # small absolute error on small values uses the 1.0 floor
    assert oracles.rel_error(np.array([1e-6]), np.array([2e-6])) == pytest.approx(1e-6)
    assert oracles.rel_error(np.array([200.0]), np.array([100.0])) == pytest.approx(0.5)


# -- helpers ----------------------------------------------------------------

def _columns(xw):
    """A step-form projection's r/z and c columns, as the kernel reads them."""
    n = xw.shape[1] // 3
    return xw[:, :2 * n], xw[:, 2 * n:]


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
