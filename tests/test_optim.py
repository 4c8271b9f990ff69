"""Adam behaviour: per-group rates, clipping, skip on bad gradients."""

import numpy as np
import pytest

from thrnn.autodiff import Tensor
from thrnn.optim import BLOCK, Adam, ParamGroup


def _fresh(lr_a=0.1, lr_b=0.01, clip=None):
    a = Tensor(np.zeros(3))
    b = Tensor(np.zeros(3))
    opt = Adam([ParamGroup("a", [a], lr=lr_a),
                ParamGroup("b", [b], lr=lr_b, clip_norm=clip)])
    return a, b, opt


def test_first_step_moves_by_lr():
    # with constant gradient, |Adam step 1| = lr * g/(|g| + eps) ~ lr
    a, b, opt = _fresh()
    a.grad = np.array([1.0, -1.0, 2.0])
    b.grad = np.array([0.5, 0.5, 0.5])
    rep = opt.step()
    assert rep.applied
    np.testing.assert_allclose(a.value, [-0.1, 0.1, -0.1], atol=1e-6)
    np.testing.assert_allclose(b.value, [-0.01, -0.01, -0.01], atol=1e-7)


def test_converges_on_quadratic():
    x = Tensor(np.array([5.0, -3.0]))
    opt = Adam([ParamGroup("x", [x], lr=0.1)])
    for _ in range(500):
        opt.zero_grad()
        x.grad = 2.0 * x.value
        opt.step()
    np.testing.assert_allclose(x.value, [0.0, 0.0], atol=1e-3)


def test_nonfinite_gradient_skips_whole_step():
    a, b, opt = _fresh()
    a.grad = np.array([1.0, 1.0, 1.0])
    b.grad = np.array([np.nan, 0.0, 0.0])
    rep = opt.step()
    assert not rep.applied
    assert "b" in rep.skipped_reason
    np.testing.assert_array_equal(a.value, np.zeros(3))
    assert opt.t == 0


def test_missing_grad_treated_as_zero():
    a, b, opt = _fresh()
    a.grad = np.array([1.0, 0.0, 0.0])
    rep = opt.step()
    assert rep.applied
    np.testing.assert_array_equal(b.value, np.zeros(3))


def test_clip_norm_rescales():
    a, b, opt = _fresh(clip=1.0)
    a.grad = np.zeros(3)
    b.grad = np.array([30.0, 0.0, 40.0])  # norm 50, clipped to [0.6, 0, 0.8]
    rep = opt.step()
    assert rep.grad_norms["b"] == pytest.approx(50.0)
    assert b.value[1] == 0.0
    # the moments see the clipped gradient, not the raw one
    state = opt.state_arrays()
    np.testing.assert_allclose(state["adam_m_b_0"], [0.1 * 0.6, 0.0, 0.1 * 0.8], rtol=1e-9)
    np.testing.assert_allclose(state["adam_v_b_0"], [1e-3 * 0.36, 0.0, 1e-3 * 0.64], rtol=1e-9)


def test_state_roundtrip():
    a, b, opt = _fresh()
    for _ in range(3):
        a.grad = np.array([1.0, 2.0, 3.0])
        b.grad = np.array([0.1, 0.1, 0.1])
        opt.step()
    saved = {k: v.copy() for k, v in opt.state_arrays().items()}

    a2 = Tensor(a.value.copy())
    b2 = Tensor(b.value.copy())
    opt2 = Adam([ParamGroup("a", [a2], lr=0.1), ParamGroup("b", [b2], lr=0.01)])
    opt2.load_state_arrays(saved)
    assert opt2.t == opt.t

    for o, pa, pb in ((opt, a, b), (opt2, a2, b2)):
        pa.grad = np.array([1.0, 2.0, 3.0])
        pb.grad = np.array([0.1, 0.1, 0.1])
        o.step()
    np.testing.assert_array_equal(a.value, a2.value)
    np.testing.assert_array_equal(b.value, b2.value)


def test_duplicate_group_names_rejected():
    with pytest.raises(ValueError):
        Adam([ParamGroup("x", [Tensor(np.zeros(1))], lr=0.1),
              ParamGroup("x", [Tensor(np.zeros(1))], lr=0.1)])


def _textbook_adam(values, grads, lrs, clips, b1=0.9, b2=0.999, eps=1e-8):
    """Whole-array Adam over groups of arrays; a step with a non-finite
    gradient anywhere is skipped."""
    values = [[v.copy() for v in group] for group in values]
    m = [[np.zeros_like(v) for v in group] for group in values]
    v2 = [[np.zeros_like(v) for v in group] for group in values]
    t = 0
    for step in grads:
        if not all(np.all(np.isfinite(g)) for group in step for g in group):
            continue
        t += 1
        for gi, group in enumerate(step):
            norm = np.sqrt(sum(float(np.sum(g * g)) for g in group))
            if clips[gi] is not None and norm > clips[gi]:
                group = [g * (clips[gi] / (norm + 1e-12)) for g in group]
            for pi, g in enumerate(group):
                m[gi][pi] = b1 * m[gi][pi] + (1 - b1) * g
                v2[gi][pi] = b2 * v2[gi][pi] + (1 - b2) * g * g
                m_hat = m[gi][pi] / (1 - b1 ** t)
                v_hat = v2[gi][pi] / (1 - b2 ** t)
                values[gi][pi] = values[gi][pi] - lrs[gi] * m_hat / (np.sqrt(v_hat) + eps)
    return values, m, v2, t


def test_blocked_update_equals_textbook_adam_bit_for_bit():
    # the main group spans block edges; the time group has a 0-d array and
    # is clipped on every step; step 3 carries a NaN and must be skipped
    rng = np.random.default_rng(7)
    shapes = [[(3, BLOCK + 5), (BLOCK,), (7,)], [(100, 1), (1,), ()]]
    values = [[rng.normal(size=s) for s in group] for group in shapes]
    grads = [[[rng.normal(size=s) * (1.0 if gi == 0 else 40.0) for s in group]
              for gi, group in enumerate(shapes)] for _ in range(6)]
    grads[2][0][1][17] = np.nan
    tensors = [[Tensor(v.copy()) for v in group] for group in values]
    opt = Adam([ParamGroup("main", tensors[0], lr=1e-2),
                ParamGroup("time", tensors[1], lr=1e-3, clip_norm=5.0)])
    reports = []
    for step in grads:
        for group, gs in zip(tensors, step):
            for t, g in zip(group, gs):
                t.grad = g
        reports.append(opt.step())
    assert [r.applied for r in reports] == [True, True, False, True, True, True]
    assert all(r.grad_norms["time"] > 5.0 for r in reports if r.applied)

    want, m, v, t = _textbook_adam(values, grads, [1e-2, 1e-3], [None, 5.0])
    assert opt.t == t == 5
    state = opt.state_arrays()
    for gi, name in enumerate(("main", "time")):
        for pi, tensor in enumerate(tensors[gi]):
            assert np.array_equal(tensor.value, want[gi][pi]), (name, pi)
            assert np.array_equal(state[f"adam_m_{name}_{pi}"], m[gi][pi]), (name, pi)
            assert np.array_equal(state[f"adam_v_{name}_{pi}"], v[gi][pi]), (name, pi)
