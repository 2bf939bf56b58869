import math
import struct
import warnings

import numpy as np
import pytest

from fddkit.errors import DimensionError, FormatError, NumericError
from fddkit.model import model_forward
from fddkit.recurrent import (AdamState, LstmParams, ParamSet, adam_step,
                              clip_global_norm, finite_diff_grad, global_norm,
                              init_adam, init_params, lstm_backward,
                              lstm_forward_batch, lstm_hidden_batch,
                              max_rel_error,
                              load_params, save_params, sigmoid, softmax)


def sig(z):
    return 1.0 / (1.0 + math.exp(-z))


def scalar_params():
    # Distinct per-gate values so a gate-order mixup cannot cancel out.
    W = np.array([[0.1], [0.2], [0.3], [0.4]])
    R = np.array([[0.5], [0.6], [0.7], [0.8]])
    b = np.array([1.0, 0.0, 0.0, 0.0])
    return LstmParams(W, R, b)


def test_scalar_lstm_two_steps_match_hand_trace():
    p = scalar_params()
    x = np.array([[[1.0], [-0.5]]])
    h, c, _ = lstm_forward_batch(x, p)
    h, c = h[0], c[0]

    # Step 1 from zero state, traced with plain math.
    f1 = sig(0.1 * 1.0 + 1.0)
    i1 = sig(0.2 * 1.0)
    g1 = math.tanh(0.3 * 1.0)
    o1 = sig(0.4 * 1.0)
    c1 = i1 * g1
    h1 = o1 * math.tanh(c1)

    f2 = sig(0.1 * -0.5 + 0.5 * h1 + 1.0)
    i2 = sig(0.2 * -0.5 + 0.6 * h1)
    g2 = math.tanh(0.3 * -0.5 + 0.7 * h1)
    o2 = sig(0.4 * -0.5 + 0.8 * h1)
    c2 = f2 * c1 + i2 * g2
    h2 = o2 * math.tanh(c2)

    assert h.shape == (2, 1) and c.shape == (2, 1)
    np.testing.assert_allclose(c[:, 0], [c1, c2], rtol=0, atol=1e-15)
    np.testing.assert_allclose(h[:, 0], [h1, h2], rtol=0, atol=1e-15)


def test_forget_gate_carries_cell_state():
    # A unit input at t = 0 opens the input gate and writes a candidate of
    # 0.75 into the cell; afterwards the input is zero, so with a saturated
    # forget gate and a dead input gate the cell state must pass through
    # unchanged.
    W = np.array([[0.0], [1000.0], [np.arctanh(0.75)], [0.0]])
    R = np.zeros((4, 1))
    b = np.array([500.0, -500.0, 0.0, 0.0])
    p = LstmParams(W, R, b)
    x = np.zeros((1, 5, 1))
    x[0, 0, 0] = 1.0
    h, c, _ = lstm_forward_batch(x, p)
    np.testing.assert_allclose(c[0, :, 0], 0.75, rtol=0, atol=1e-12)


def test_batch_forward_matches_per_sequence():
    rng = np.random.default_rng(7)
    p = init_params([(3, 4)], 2, seed=1).layers[0]
    x = rng.normal(size=(5, 6, 3))
    hb, cb, _ = lstm_forward_batch(x, p)
    for k in range(5):
        h1, c1, _ = lstm_forward_batch(x[k][None], p)
        np.testing.assert_allclose(hb[k], h1[0], rtol=0, atol=1e-14)
        np.testing.assert_allclose(cb[k], c1[0], rtol=0, atol=1e-14)


def test_forward_rejects_bad_input():
    p = scalar_params()
    bad = np.ones((1, 3, 1))
    bad[0, 1, 0] = np.nan
    for forward in (lstm_forward_batch, lstm_hidden_batch):
        with pytest.raises(DimensionError):
            forward(np.zeros((1, 4, 2)), p)
        with pytest.raises(DimensionError):
            forward(np.zeros((4, 1)), p)
        with pytest.raises(NumericError):
            forward(bad, p)


def test_init_params_layout_and_determinism():
    dims = [(6, 5), (5, 3)]
    p = init_params(dims, n_classes=4, seed=42)
    assert len(p.layers) == 2
    assert p.layers[0].W.shape == (20, 6)
    assert p.layers[0].R.shape == (20, 5)
    assert p.layers[1].W.shape == (12, 5)
    assert p.W_c.shape == (4, 3)
    # Forget block biased at one, everything else at zero.
    np.testing.assert_array_equal(p.layers[0].b[:5], 1.0)
    np.testing.assert_array_equal(p.layers[0].b[5:], 0.0)
    np.testing.assert_array_equal(p.b_c, 0.0)
    assert np.max(np.abs(p.layers[0].W)) <= math.sqrt(1.0 / 6)
    assert np.max(np.abs(p.layers[0].R)) <= math.sqrt(1.0 / 5)
    assert np.max(np.abs(p.W_c)) <= math.sqrt(1.0 / 3)

    q = init_params(dims, n_classes=4, seed=42)
    for a, b in zip(p.flat_arrays(), q.flat_arrays()):
        np.testing.assert_array_equal(a, b)
    r = init_params(dims, n_classes=4, seed=43)
    assert not np.array_equal(p.layers[0].W, r.layers[0].W)


def test_init_params_rejects_broken_chain():
    with pytest.raises(DimensionError):
        init_params([(6, 5), (4, 3)], n_classes=2, seed=0)


def test_paramset_encoder_split():
    p = init_params([(4, 3), (3, 2)], n_classes=5, seed=0, n_encoder=1)
    assert p.d_z == 3
    assert p.W_c.shape == (5, 3)


def test_softmax_known_values():
    np.testing.assert_allclose(softmax(np.zeros(2)), [0.5, 0.5], atol=1e-15)
    out = softmax(np.array([math.log(2.0), 0.0]))
    np.testing.assert_allclose(out, [2.0 / 3.0, 1.0 / 3.0], atol=1e-15)
    # Shift invariance at extreme magnitudes.
    out = softmax(np.array([1000.0, 1000.0, 999.0]))
    assert np.all(np.isfinite(out)) and abs(out.sum() - 1.0) < 1e-12
    rows = softmax(np.random.default_rng(0).normal(size=(8, 5)))
    np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-12)
    with pytest.raises(NumericError):
        softmax(np.array([np.inf, 0.0]))


def test_sigmoid_saturates_cleanly():
    out = sigmoid(np.array([-1000.0, 0.0, 1000.0]))
    np.testing.assert_allclose(out, [0.0, 0.5, 1.0], atol=1e-12)
    assert np.all(np.isfinite(out))


def two_branch_sigmoid(x):
    # The boolean-mask formula sigmoid must reproduce bit for bit.
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_matches_two_branch_formula_bitwise():
    edge = np.array([0.0, -0.0, 1e3, -1e3, 708.0, -708.0, 709.0, -709.0,
                     709.78, -709.78, 710.0, -710.0, 745.2, -745.2,
                     1e-300, -1e-300, 5e-324, -5e-324, 36.7, -36.7])
    draws = np.random.default_rng(17).normal(scale=8.0, size=(64, 48))
    for x in (edge, draws, draws[:, 12:24], draws.T):
        np.testing.assert_array_equal(sigmoid(x), two_branch_sigmoid(x))
    assert math.copysign(1.0, sigmoid(np.array([-0.0]))[0]) == 1.0


def test_sigmoid_in_place_on_strided_gate_views_matches_bitwise():
    edge = np.array([0.0, -0.0, 709.0, -709.0, 745.2, -745.2,
                     1e-300, -1e-300, 5e-324, -5e-324])
    draws = np.random.default_rng(23).normal(scale=8.0, size=(3, 4, 5, 10))
    draws[:, :, 0] = edge
    # the blocks the step hands to sigmoid: forget and input together,
    # then output, each a strided view of the (T, 4, N, d_h) gate array
    for view in (lambda g: g[:, :2], lambda g: g[:, 3], lambda g: g[1, :2]):
        gates = draws.copy()
        x = view(gates)
        expect = two_branch_sigmoid(x)
        assert sigmoid(x, out=x) is x
        np.testing.assert_array_equal(x, expect)
        np.testing.assert_array_equal(np.signbit(x), np.signbit(expect))
        np.testing.assert_array_equal(gates[:, 2], draws[:, 2])


def test_lstm_step_takes_sigmoid_of_three_gate_blocks(monkeypatch):
    # the candidate block goes through tanh alone, in the training and
    # the inference pass alike
    import fddkit.recurrent as recurrent
    seen = []
    real = recurrent.sigmoid

    def counting(x, *args, **kwargs):
        seen.append(np.size(x))
        return real(x, *args, **kwargs)

    n, t_len, d_x, d_h = 7, 5, 3, 4
    p = init_params([(d_x, d_h)], n_classes=2, seed=6).layers[0]
    x = np.random.default_rng(9).normal(size=(n, t_len, d_x))
    h, _, _ = lstm_forward_batch(x, p)
    monkeypatch.setattr(recurrent, "sigmoid", counting)
    for hidden in (lambda: lstm_forward_batch(x, p)[0],
                   lambda: lstm_hidden_batch(x, p)):
        seen.clear()
        np.testing.assert_array_equal(hidden(), h)
        assert sum(seen) == 3 * n * t_len * d_h


def per_gate_forward(x, p):
    """Reference LSTM forward: one nonlinearity call per gate block."""
    n, t_len, _ = x.shape
    d_h = p.d_h
    h = np.empty((n, t_len, d_h))
    c = np.empty((n, t_len, d_h))
    gates = [np.empty((n, t_len, d_h)) for _ in range(4)]
    f, i, g, o = gates
    tanh_c = np.empty((n, t_len, d_h))
    xw = x @ p.W.T + p.b
    h_prev, c_prev = np.zeros((n, d_h)), np.zeros((n, d_h))
    for t in range(t_len):
        a = xw[:, t] + h_prev @ p.R.T
        f[:, t] = two_branch_sigmoid(a[:, :d_h])
        i[:, t] = two_branch_sigmoid(a[:, d_h:2 * d_h])
        g[:, t] = np.tanh(a[:, 2 * d_h:3 * d_h])
        o[:, t] = two_branch_sigmoid(a[:, 3 * d_h:])
        c[:, t] = f[:, t] * c_prev + i[:, t] * g[:, t]
        tanh_c[:, t] = np.tanh(c[:, t])
        h[:, t] = o[:, t] * tanh_c[:, t]
        h_prev, c_prev = h[:, t], c[:, t]
    return h, c, gates, tanh_c


def per_gate_backward(x, p, h, c, gates, tanh_c, grad_h):
    """Reference backward pass over per-gate arrays, zero initial state."""
    n, t_len, d_h = h.shape
    f_all, i_all, g_all, o_all = gates
    dW, dR, db = np.zeros_like(p.W), np.zeros_like(p.R), np.zeros_like(p.b)
    dx = np.empty_like(x)
    dh_next = np.zeros((n, d_h))
    dc = np.zeros((n, d_h))
    da = np.empty((n, 4 * d_h))
    zeros = np.zeros((n, d_h))
    for t in range(t_len - 1, -1, -1):
        f, i, g, o = f_all[:, t], i_all[:, t], g_all[:, t], o_all[:, t]
        tc = tanh_c[:, t]
        c_prev = c[:, t - 1] if t > 0 else zeros
        h_prev = h[:, t - 1] if t > 0 else zeros
        dh = grad_h[:, t] + dh_next
        do = dh * tc
        dc = dc + dh * o * (1.0 - tc * tc)
        df = dc * c_prev
        di = dc * g
        dg = dc * i
        da[:, :d_h] = df * f * (1.0 - f)
        da[:, d_h:2 * d_h] = di * i * (1.0 - i)
        da[:, 2 * d_h:3 * d_h] = dg * (1.0 - g * g)
        da[:, 3 * d_h:] = do * o * (1.0 - o)
        dW += da.T @ x[:, t]
        dR += da.T @ h_prev
        db += da.sum(axis=0)
        dx[:, t] = da @ p.W
        dh_next = da @ p.R
        dc = dc * f
    return dW, dR, db, dx


def time_major_view(x):
    """x as an (N, T, d) view of (T, N, d) memory, the layout of the
    hidden sequence that a layer hands to the next."""
    return np.ascontiguousarray(x.transpose(1, 0, 2)).transpose(1, 0, 2)


# (481, 20, 10, 12) is the diagnose workload's inference shape; at d_h 49
# to 59 some BLAS paths were found to round differently
@pytest.mark.parametrize("n,t_len,d_x,d_h", [
    (7, 6, 3, 4), (5, 1, 2, 3), (4, 5, 3, 1), (1, 1, 1, 1), (128, 20, 10, 12),
    (9, 150, 52, 16), (481, 20, 10, 12), (33, 7, 5, 55)])
def test_packed_gates_match_per_gate_loop_exactly(n, t_len, d_x, d_h):
    rng = np.random.default_rng(n * 1000 + t_len * 100 + d_h)
    p = init_params([(d_x, d_h)], n_classes=2, seed=d_h).layers[0]
    x = rng.normal(scale=2.0, size=(n, t_len, d_x))
    grad_h = rng.normal(size=(n, t_len, d_h))

    h, c, cache = lstm_forward_batch(x, p)
    ref_h, ref_c, ref_gates, ref_tanh_c = per_gate_forward(x, p)
    np.testing.assert_array_equal(h, ref_h)
    np.testing.assert_array_equal(lstm_hidden_batch(x, p), h)
    # a second layer's input is a time-major view; it gives the same bits
    xt = time_major_view(x)
    np.testing.assert_array_equal(lstm_forward_batch(xt, p)[0], h)
    np.testing.assert_array_equal(lstm_hidden_batch(xt, p), h)
    np.testing.assert_array_equal(c, ref_c)
    np.testing.assert_array_equal(cache.tanh_c, ref_tanh_c)
    assert cache.gates.shape == (t_len, 4, n, d_h)
    for k, ref in enumerate(ref_gates):
        np.testing.assert_array_equal(
            cache.gates[:, k].transpose(1, 0, 2), ref)

    grads, dx = lstm_backward(cache, grad_h)
    ref_dW, ref_dR, ref_db, ref_dx = per_gate_backward(
        x, p, ref_h, ref_c, ref_gates, ref_tanh_c, grad_h)
    np.testing.assert_array_equal(grads.W, ref_dW)
    np.testing.assert_array_equal(grads.R, ref_dR)
    np.testing.assert_array_equal(grads.b, ref_db)
    np.testing.assert_array_equal(dx, ref_dx)


def test_lstm_step_operands_are_contiguous():
    n, t_len, d_x, d_h = 6, 5, 3, 4
    rng = np.random.default_rng(8)
    p = init_params([(d_x, d_h)], n_classes=2, seed=4).layers[0]
    x = rng.normal(size=(n, t_len, d_x))
    h, c, cache = lstm_forward_batch(x, p)
    for t in range(t_len):
        for seq in (cache.x, h, c, cache.tanh_c, lstm_hidden_batch(x, p)):
            assert seq[:, t].flags.c_contiguous
        for k in range(4):
            assert cache.gates[t, k].flags.c_contiguous

    # a time-major gradient (what the next layer's backward returns) is
    # read in place and gives the same bits as a batch-major one
    grad_h = rng.normal(size=(n, t_len, d_h))
    time_major = np.ascontiguousarray(grad_h.transpose(1, 0, 2))
    grads, dx = lstm_backward(cache, grad_h)
    grads_tm, dx_tm = lstm_backward(cache, time_major.transpose(1, 0, 2))
    for a, b in zip((grads.W, grads.R, grads.b, dx),
                    (grads_tm.W, grads_tm.R, grads_tm.b, dx_tm)):
        np.testing.assert_array_equal(a, b)
    assert all(dx[:, t].flags.c_contiguous for t in range(t_len))

    # the next layer takes h as its input without a copy
    _, _, cache2 = lstm_forward_batch(h, init_params(
        [(d_h, 2)], n_classes=2, seed=5).layers[0])
    assert np.shares_memory(cache2.x, h)


def tiny_paramset():
    return init_params([(2, 3)], n_classes=2, seed=9)


def test_finite_diff_is_exact_on_linear_loss():
    p = tiny_paramset()
    p.W_c[0, 0] = 1.0
    # f = 2*w with power-of-two step: central difference is exact in floats.
    g = finite_diff_grad(lambda q: 2.0 * q.W_c[0, 0], p, eps=0.5)
    assert g.W_c[0, 0] == 2.0
    assert np.all(g.layers[0].W == 0.0)
    assert np.all(g.b_c == 0.0)


def test_finite_diff_rejects_nonfinite_loss():
    p = tiny_paramset()
    with pytest.raises(NumericError):
        finite_diff_grad(lambda q: float("nan"), p, eps=1e-5)


def test_lstm_backward_matches_finite_differences():
    rng = np.random.default_rng(3)
    for trial in range(3):
        d_x, d_h, t_len, n = 2, 3, 4, 2
        base = init_params([(d_x, d_h)], n_classes=2, seed=100 + trial)
        x = rng.normal(size=(n, t_len, d_x))
        gh = rng.normal(size=(n, t_len, d_h))

        def loss(ps):
            h, _, _ = lstm_forward_batch(x, ps.layers[0])
            return float(np.sum(h * gh))

        _, _, cache = lstm_forward_batch(x, base.layers[0])
        grads, _ = lstm_backward(cache, gh)
        analytic = base.zeros_like()
        analytic.layers[0] = grads

        numeric = finite_diff_grad(loss, base, eps=1e-5)
        err = max_rel_error(analytic, numeric)
        assert err < 1e-6, f"trial {trial}: rel error {err:.3e}"


def test_lstm_backward_input_gradient():
    rng = np.random.default_rng(11)
    p = init_params([(2, 3)], n_classes=2, seed=5).layers[0]
    x = rng.normal(size=(1, 3, 2))
    gh = rng.normal(size=(1, 3, 3))
    _, _, cache = lstm_forward_batch(x, p)
    _, dx = lstm_backward(cache, gh)

    eps = 1e-5
    for t in range(3):
        for j in range(2):
            xp = x.copy()
            xp[0, t, j] += eps
            hp, _, _ = lstm_forward_batch(xp, p)
            xm = x.copy()
            xm[0, t, j] -= eps
            hm, _, _ = lstm_forward_batch(xm, p)
            num = (np.sum(hp * gh) - np.sum(hm * gh)) / (2 * eps)
            denom = max(1.0, abs(num), abs(dx[0, t, j]))
            assert abs(dx[0, t, j] - num) / denom < 1e-6


def test_single_sequence_backward_shapes():
    p = scalar_params()
    x = np.array([[[1.0], [2.0], [0.5]]])
    h, _, cache = lstm_forward_batch(x, p)
    grads, dx = lstm_backward(cache, np.ones_like(h))
    assert dx.shape == x.shape
    assert grads.W.shape == p.W.shape


def test_zero_windows_give_empty_arrays_of_the_right_shapes():
    # the training pass raised a bare ValueError here (a reshape with -1
    # next to the empty batch axis)
    p = init_params([(3, 4), (4, 3)], n_classes=2, seed=0, n_encoder=1)
    x = np.empty((0, 5, 3))
    h, c, cache = lstm_forward_batch(x, p.layers[0])
    assert h.shape == c.shape == (0, 5, 4)
    grads, dx = lstm_backward(cache, np.empty((0, 5, 4)))
    assert dx.shape == (0, 5, 3)
    for g, w in zip((grads.W, grads.R, grads.b),
                    (p.layers[0].W, p.layers[0].R, p.layers[0].b)):
        assert g.shape == w.shape and not np.any(g)
    recon, probs, z = model_forward(x, p)
    assert (recon.shape, probs.shape, z.shape) == ((0, 5, 3), (0, 2), (0, 4))


def test_backward_without_input_gradient_keeps_parameter_gradients():
    rng = np.random.default_rng(12)
    p = init_params([(5, 6)], n_classes=2, seed=8).layers[0]
    x = rng.normal(size=(7, 9, 5))
    gh = rng.normal(size=(7, 9, 6))
    _, _, cache = lstm_forward_batch(x, p)
    full, dx = lstm_backward(cache, gh)
    skipped, none = lstm_backward(cache, gh, grad_input=False)
    assert dx.shape == x.shape and none is None
    for a, b in zip((full.W, full.R, full.b), (skipped.W, skipped.R, skipped.b)):
        assert a.tobytes() == b.tobytes()


# (N, T, d_x, d_h): the paper_seed shapes (T = 20, d_h = 12, batch 128)
# and the archive_track encoder and decoder (T = 150, 52 channels, d_z = 16)
SHAPES = [(128, 20, 7, 12), (64, 150, 52, 16), (64, 150, 16, 52)]
# float32 keeps about 7 digits; over 150 steps the passes measured below
# 6e-7 of each array's largest magnitude, so 100 float32 ulps leaves room
# for other BLAS kernels
REL_TOL_32 = 100 * np.finfo(np.float32).eps


def float32_case(n, t_len, d_x, d_h, seed=0):
    rng = np.random.default_rng(seed)
    p = init_params([(d_x, d_h)], n_classes=2, seed=seed)
    return (p.layers[0], p.astype(np.float32).layers[0],
            rng.normal(size=(n, t_len, d_x)), rng.normal(size=(n, t_len, d_h)))


def test_paramset_astype_casts_every_array_and_keeps_one_dtype():
    p = init_params([(3, 4), (4, 3)], n_classes=2, seed=1, n_encoder=1)
    q = p.astype(np.float32)
    assert p.dtype == np.float64 and q.dtype == np.float32
    assert all(a.dtype == np.float32 for a in q.flat_arrays())
    assert q.n_encoder == 1
    back = q.astype(np.float64)
    for a, b in zip(back.flat_arrays(), p.flat_arrays()):
        np.testing.assert_allclose(a, b, rtol=np.finfo(np.float32).eps)
    with pytest.raises(TypeError):
        ParamSet([p.layers[0], q.layers[1]], p.W_c, p.b_c, 1)


def test_float32_passes_return_float32_arrays():
    _, p32, x, gh = float32_case(5, 6, 3, 4)
    h, c, cache = lstm_forward_batch(x, p32)
    grads, dx = lstm_backward(cache, gh)
    for a in (h, c, cache.x, cache.gates, cache.tanh_c, dx,
              lstm_hidden_batch(x, p32), grads.W, grads.R, grads.b):
        assert a.dtype == np.float32


@pytest.mark.parametrize("n,t_len,d_x,d_h",
                         SHAPES + [(481, 20, 10, 12), (33, 7, 5, 55)])
def test_float32_hidden_pass_equals_training_pass_bitwise(n, t_len, d_x, d_h):
    _, p32, x, _ = float32_case(n, t_len, d_x, d_h)
    for x in (x, time_major_view(x.astype(np.float32))):
        h, _, _ = lstm_forward_batch(x, p32)
        assert lstm_hidden_batch(x, p32).tobytes() == h.tobytes()


def test_hidden_pass_equals_training_pass_bitwise_on_random_shapes():
    rng = np.random.default_rng(24)
    for case in range(100):
        n, t_len = rng.integers(1, 300), rng.integers(1, 60)
        d_x, d_h = rng.integers(1, 53), rng.integers(1, 60)
        dtype = (np.float32, np.float64)[case % 2]
        p = init_params([(d_x, d_h)], n_classes=2,
                        seed=case).astype(dtype).layers[0]
        x = rng.normal(size=(n, t_len, d_x)).astype(dtype)
        if case % 4 >= 2:
            x = time_major_view(x)
        h, _, _ = lstm_forward_batch(x, p)
        assert lstm_hidden_batch(x, p).tobytes() == h.tobytes(), (
            n, t_len, d_x, d_h, dtype)


@pytest.mark.parametrize("n,t_len,d_x,d_h", SHAPES)
def test_float32_passes_agree_with_float64(n, t_len, d_x, d_h):
    p64, p32, x, gh = float32_case(n, t_len, d_x, d_h)
    h64, c64, cache64 = lstm_forward_batch(x, p64)
    h32, c32, cache32 = lstm_forward_batch(x, p32)
    g64, dx64 = lstm_backward(cache64, gh)
    g32, dx32 = lstm_backward(cache32, gh)
    for a32, a64 in ((h32, h64), (c32, c64), (g32.W, g64.W), (g32.R, g64.R),
                     (g32.b, g64.b), (dx32, dx64)):
        err = np.max(np.abs(a32 - a64)) / np.max(np.abs(a64))
        assert err < REL_TOL_32


def test_sigmoid_float32_saturates_exactly_without_warnings():
    x = np.array([-1e4, -100.0, 0.0, 100.0, 1e4], dtype=np.float32)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = sigmoid(x)
        in_place = x.copy()
        sigmoid(in_place, out=in_place)
    assert out.dtype == np.float32
    assert out[0] == 0.0 and out[-1] == 1.0 and out[2] == 0.5
    assert in_place.tobytes() == out.tobytes()


def test_adam_first_step_closed_form():
    p = tiny_paramset()
    g = p.zeros_like()
    for arr in g.flat_arrays():
        arr.fill(3.0)
    before = [a.copy() for a in p.flat_arrays()]
    new, state = adam_step(p, g, init_adam(p), lr=0.1)
    # After bias correction the very first update is lr*g/(|g|+eps).
    expect = 0.1 * 3.0 / (3.0 + 1e-8)
    for a, b in zip(new.flat_arrays(), before):
        np.testing.assert_allclose(a, b - expect, rtol=0, atol=1e-12)
    assert state.step == 1
    # Original parameters untouched.
    for a, b in zip(p.flat_arrays(), before):
        np.testing.assert_array_equal(a, b)


def test_adam_two_steps_match_reference_loop():
    rng = np.random.default_rng(21)
    p = tiny_paramset()
    grads = []
    for _ in range(2):
        g = p.zeros_like()
        for arr in g.flat_arrays():
            arr[...] = rng.normal(size=arr.shape)
        grads.append(g)

    lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
    ref = [a.copy() for a in p.flat_arrays()]
    m = [np.zeros_like(a) for a in ref]
    v = [np.zeros_like(a) for a in ref]
    for t in (1, 2):
        for k, garr in enumerate(grads[t - 1].flat_arrays()):
            m[k] = b1 * m[k] + (1 - b1) * garr
            v[k] = b2 * v[k] + (1 - b2) * garr ** 2
            mh = m[k] / (1 - b1 ** t)
            vh = v[k] / (1 - b2 ** t)
            ref[k] = ref[k] - lr * mh / (np.sqrt(vh) + eps)

    cur, state = p, init_adam(p)
    for g in grads:
        cur, state = adam_step(cur, g, state, lr=lr, beta1=b1, beta2=b2, eps=eps)
    for a, b in zip(cur.flat_arrays(), ref):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-14)


def test_global_norm_and_clipping():
    p = init_params([(1, 1)], n_classes=2, seed=0)
    g = p.zeros_like()
    g.layers[0].W[0, 0] = 3.0
    g.W_c[0, 0] = 4.0
    assert global_norm(g) == 5.0

    clipped, norm = clip_global_norm(g, 2.5)
    assert norm == 5.0
    assert clipped.layers[0].W[0, 0] == 1.5
    assert clipped.W_c[0, 0] == 2.0
    # Under the threshold the gradients come back unscaled.
    same, norm = clip_global_norm(g, 10.0)
    assert norm == 5.0
    assert same.layers[0].W[0, 0] == 3.0


def test_param_serialization_round_trip(tmp_path):
    p = init_params([(5, 4), (4, 2)], n_classes=3, seed=77, n_encoder=1)
    path = tmp_path / "params.bin"
    save_params(p, path)
    q = load_params(path)
    assert q.n_encoder == 1 and q.n_classes == 3
    for a, b in zip(p.flat_arrays(), q.flat_arrays()):
        np.testing.assert_array_equal(a, b)
    # Same bytes when written again: serialization is deterministic.
    path2 = tmp_path / "params2.bin"
    save_params(q, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_load_params_rejects_garbage(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"not a parameter file")
    with pytest.raises(FormatError):
        load_params(path)


def param_file_bytes(n_encoder, dims, n_classes):
    """A parameter file with the given header and layer table, all-zero
    arrays of the sizes that table implies."""
    d_z = dims[min(n_encoder, len(dims)) - 1][1]
    count = sum(4 * d_h * (d_x + d_h + 1) for d_x, d_h in dims) \
        + n_classes * (d_z + 1)
    return (b"FDK1" + struct.pack("<III", len(dims), n_encoder, n_classes)
            + b"".join(struct.pack("<II", *d) for d in dims)
            + bytes(8 * count))


def test_load_params_rejects_truncated_and_padded_files(tmp_path):
    path = tmp_path / "params.bin"
    path.write_bytes(param_file_bytes(1, [(5, 4), (4, 2)], 3))
    assert load_params(path).n_classes == 3
    blob = path.read_bytes()
    # cut inside the magic, the header, the layer table and the first
    # array, one byte short, and one byte over
    variants = [blob[:k] for k in (2, 4, 10, 16, 20, 28, 40, len(blob) - 1)]
    variants.append(blob + b"\0")
    # encoder index outside the layer table, layers that do not chain,
    # and array sizes far beyond the file
    variants.append(param_file_bytes(0, [(5, 4), (4, 2)], 3))
    variants.append(param_file_bytes(3, [(5, 4), (4, 2)], 3))
    variants.append(param_file_bytes(1, [(5, 4), (3, 2)], 3))
    variants.append(blob[:16] + struct.pack("<II", 2**32 - 1, 2**32 - 1)
                    + blob[24:])
    for variant in variants:
        path.write_bytes(variant)
        with pytest.raises(FormatError):
            load_params(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_load_params_rejects_non_finite_values(tmp_path, bad):
    p = init_params([(5, 4), (4, 2)], n_classes=3, seed=77, n_encoder=1)
    for k in range(len(p.flat_arrays())):
        q = p.copy()
        q.flat_arrays()[k].reshape(-1)[-1] = bad
        path = tmp_path / f"params{k}.bin"
        save_params(q, path)
        with pytest.raises(FormatError, match="non-finite"):
            load_params(path)
