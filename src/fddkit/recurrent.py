"""LSTM forward/backward passes, softmax, Adam, and a finite-difference gradient oracle.

All math is dense float64 numpy. Gate blocks are packed row-wise in the
order forget, input, candidate, output, so W has shape (4*d_h, d_x),
R has shape (4*d_h, d_h) and b has shape (4*d_h,).

There are two forward passes over the same step arithmetic.
``lstm_forward_batch`` is the training pass: it keeps the gate
activations packed the same way, one ``gates`` array of shape
(N, T, 4*d_h) in the cache, filled per step by a single ``sigmoid`` call
over the whole preactivation, with the candidate block then overwritten
by ``tanh``, plus the cell states that ``lstm_backward`` reads back.
``lstm_hidden_batch`` is the inference pass: it returns only the hidden
sequence and keeps no cache, so it allocates no (N, T, ...) gate or
cell arrays. Both give the same hidden states bit for bit. Time steps are a
Python loop, so one gate pass per step rather than one per gate is what
keeps training cheap at small hidden sizes.
"""

from dataclasses import dataclass, field
import math
import struct

import numpy as np

from .errors import DimensionError, FormatError, NumericError

_MAGIC = b"FDK1"


def sigmoid(x):
    """Numerically stable logistic function.

    1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) below, so exp
    never overflows; both branches share e = exp(-|x|), which avoids
    boolean-mask gathers and scatters.
    """
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    out = np.where(x >= 0, 1.0, e)
    e += 1.0
    out /= e
    return out


def softmax(logits):
    """Softmax along the last axis, shifted by the row max for stability."""
    logits = np.asarray(logits, dtype=np.float64)
    if not np.all(np.isfinite(logits)):
        raise NumericError("softmax received non-finite logits")
    shifted = logits - np.max(logits, axis=-1, keepdims=True)
    ex = np.exp(shifted)
    return ex / np.sum(ex, axis=-1, keepdims=True)


@dataclass
class LstmParams:
    """One recurrent layer: input kernel W, recurrent kernel R, bias b."""

    W: np.ndarray
    R: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.W = np.asarray(self.W, dtype=np.float64)
        self.R = np.asarray(self.R, dtype=np.float64)
        self.b = np.asarray(self.b, dtype=np.float64)
        if self.W.ndim != 2 or self.R.ndim != 2 or self.b.ndim != 1:
            raise DimensionError("LSTM parameter arrays have wrong rank")
        four_dh = self.W.shape[0]
        if four_dh % 4 != 0:
            raise DimensionError("first axis of W must be a multiple of 4")
        d_h = four_dh // 4
        if self.R.shape != (four_dh, d_h):
            raise DimensionError(
                f"R must be {(four_dh, d_h)}, got {self.R.shape}")
        if self.b.shape != (four_dh,):
            raise DimensionError(
                f"b must be {(four_dh,)}, got {self.b.shape}")

    @property
    def d_h(self):
        return self.W.shape[0] // 4

    @property
    def d_x(self):
        return self.W.shape[1]

    def copy(self):
        return LstmParams(self.W.copy(), self.R.copy(), self.b.copy())

    def zeros_like(self):
        return LstmParams(np.zeros_like(self.W), np.zeros_like(self.R),
                          np.zeros_like(self.b))


@dataclass
class ParamSet:
    """All trainable parameters of a recurrent autoencoder with a classifier head.

    ``layers`` holds encoder layers first, then decoder layers;
    ``n_encoder`` marks the split. The classifier reads the hidden state of
    layer ``n_encoder - 1``, so W_c has shape (n_classes, d_z) with d_z the
    hidden size of that layer.
    """

    layers: list = field(default_factory=list)
    W_c: np.ndarray = None
    b_c: np.ndarray = None
    n_encoder: int = None

    def __post_init__(self):
        if self.n_encoder is None:
            self.n_encoder = len(self.layers)
        if not 1 <= self.n_encoder <= len(self.layers):
            raise DimensionError("n_encoder out of range")
        for k in range(1, len(self.layers)):
            if self.layers[k].d_x != self.layers[k - 1].d_h:
                raise DimensionError(
                    f"layer {k} expects input size {self.layers[k].d_x}, "
                    f"previous layer produces {self.layers[k - 1].d_h}")
        self.W_c = np.asarray(self.W_c, dtype=np.float64)
        self.b_c = np.asarray(self.b_c, dtype=np.float64)
        d_z = self.layers[self.n_encoder - 1].d_h
        if self.W_c.ndim != 2 or self.W_c.shape[1] != d_z:
            raise DimensionError(
                f"W_c must have {d_z} columns, got shape {self.W_c.shape}")
        if self.b_c.shape != (self.W_c.shape[0],):
            raise DimensionError("b_c does not match W_c")

    @property
    def d_z(self):
        return self.layers[self.n_encoder - 1].d_h

    @property
    def n_classes(self):
        return self.W_c.shape[0]

    def flat_arrays(self):
        """References (not copies) to every parameter array, fixed order."""
        out = []
        for layer in self.layers:
            out.extend((layer.W, layer.R, layer.b))
        out.extend((self.W_c, self.b_c))
        return out

    def copy(self):
        return ParamSet([la.copy() for la in self.layers], self.W_c.copy(),
                        self.b_c.copy(), self.n_encoder)

    def zeros_like(self):
        return ParamSet([la.zeros_like() for la in self.layers],
                        np.zeros_like(self.W_c), np.zeros_like(self.b_c),
                        self.n_encoder)


def init_params(layer_dims, n_classes, seed, n_encoder=None):
    """Draw an initial ParamSet.

    Parameters
    ----------
    layer_dims : sequence of (d_x, d_h)
        Sizes of each recurrent layer, encoder first. Consecutive layers
        must chain: layer k input size equals layer k-1 hidden size.
    n_classes : int
        Output size of the classifier head.
    seed : int
        Seed for the generator; same seed gives identical parameters.
    n_encoder : int, optional
        Number of leading layers that form the encoder. Defaults to all.

    Weights are uniform on +-sqrt(1/fan_in). Forget-gate biases start at
    1.0 so early training does not wipe the cell state; all other biases
    start at zero.
    """
    if not layer_dims:
        raise DimensionError("need at least one layer")
    if n_classes < 2:
        raise DimensionError("classifier needs at least two classes")
    rng = np.random.default_rng(seed)
    layers = []
    for d_x, d_h in layer_dims:
        if d_x < 1 or d_h < 1:
            raise DimensionError("layer sizes must be positive")
        sw = np.sqrt(1.0 / d_x)
        sr = np.sqrt(1.0 / d_h)
        W = rng.uniform(-sw, sw, size=(4 * d_h, d_x))
        R = rng.uniform(-sr, sr, size=(4 * d_h, d_h))
        b = np.zeros(4 * d_h)
        b[:d_h] = 1.0
        layers.append(LstmParams(W, R, b))
    if n_encoder is None:
        n_encoder = len(layers)
    d_z = layers[n_encoder - 1].d_h
    sc = np.sqrt(1.0 / d_z)
    W_c = rng.uniform(-sc, sc, size=(n_classes, d_z))
    b_c = np.zeros(n_classes)
    return ParamSet(layers, W_c, b_c, n_encoder)


@dataclass
class LstmCache:
    """Everything the backward pass needs from one layer's forward pass."""

    x: np.ndarray        # (N, T, d_x)
    h: np.ndarray        # (N, T, d_h)
    c: np.ndarray        # (N, T, d_h)
    gates: np.ndarray    # (N, T, 4*d_h): forget, input, candidate, output
    tanh_c: np.ndarray   # (N, T, d_h)
    params: LstmParams


def _checked_input(x, params):
    """The input as float64 (N, T, d_x); rejects a wrong rank, non-finite
    values and a feature size the layer does not take."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3:
        raise DimensionError(f"expected (N, T, d_x) input, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise NumericError("LSTM input contains non-finite values")
    if x.shape[2] != params.d_x:
        raise DimensionError(
            f"input feature size {x.shape[2]} does not match layer input "
            f"size {params.d_x}")
    return x


def _gate_step(a, c_prev, d_h):
    """One time step from the packed preactivation a (N, 4*d_h).

    Returns the packed gate activations, the cell state, tanh of the
    cell state and the hidden state.
    """
    gt = sigmoid(a)
    gt[:, 2 * d_h:3 * d_h] = np.tanh(a[:, 2 * d_h:3 * d_h])
    f, i, g, o = (gt[:, k * d_h:(k + 1) * d_h] for k in range(4))
    c = f * c_prev + i * g
    tanh_c = np.tanh(c)
    return gt, c, tanh_c, o * tanh_c


def lstm_forward_batch(x, params):
    """Run one LSTM layer over a batch of sequences from zero states,
    keeping the cache that lstm_backward needs.

    Parameters
    ----------
    x : ndarray, shape (N, T, d_x)
    params : LstmParams

    Returns
    -------
    h : ndarray, shape (N, T, d_h)
    c : ndarray, shape (N, T, d_h)
    cache : LstmCache
    """
    x = _checked_input(x, params)
    n, t_len, _ = x.shape
    d_h = params.d_h

    h = np.empty((n, t_len, d_h))
    c = np.empty((n, t_len, d_h))
    gates = np.empty((n, t_len, 4 * d_h))
    tanh_c = np.empty((n, t_len, d_h))

    # Hoist the input projection out of the time loop; only the recurrent
    # term depends on the previous step.
    xw = x @ params.W.T + params.b
    h_prev = c_prev = np.zeros((n, d_h))
    for t in range(t_len):
        a = xw[:, t] + h_prev @ params.R.T
        gates[:, t], c[:, t], tanh_c[:, t], h[:, t] = _gate_step(
            a, c_prev, d_h)
        h_prev, c_prev = h[:, t], c[:, t]

    cache = LstmCache(x, h, c, gates, tanh_c, params)
    return h, c, cache


def lstm_hidden_batch(x, params):
    """Hidden states of one LSTM layer over a batch of sequences.

    Same arguments, checks and arithmetic as lstm_forward_batch, so the
    result equals its ``h`` bit for bit, but nothing is kept for a
    backward pass: the only full-length array it allocates is the
    (N, T, d_h) hidden sequence.
    """
    x = _checked_input(x, params)
    n, t_len, _ = x.shape
    d_h = params.d_h
    h = np.empty((n, t_len, d_h))
    h_prev = c_prev = np.zeros((n, d_h))
    # batch-major like lstm_forward_batch: a time-major product can take
    # another BLAS path and round differently
    xw = x @ params.W.T + params.b
    for t in range(t_len):
        a = xw[:, t] + h_prev @ params.R.T
        _, c_prev, _, h[:, t] = _gate_step(a, c_prev, d_h)
        h_prev = h[:, t]
    return h


def lstm_backward(cache, grad_h):
    """Backpropagate through one layer's unrolled forward pass.

    Parameters
    ----------
    cache : LstmCache
        From lstm_forward_batch.
    grad_h : ndarray, shape (N, T, d_h)
        Loss gradient with respect to every hidden state.

    Returns
    -------
    grads : LstmParams
        Accumulated dW, dR, db.
    grad_x : ndarray
        Gradient with respect to the layer input, same shape as x.
    """
    grad_h = np.asarray(grad_h, dtype=np.float64)
    if grad_h.shape != cache.h.shape:
        raise DimensionError(
            f"grad_h shape {grad_h.shape} does not match h {cache.h.shape}")
    p = cache.params
    n, t_len, d_h = cache.h.shape

    dW = np.zeros_like(p.W)
    dR = np.zeros_like(p.R)
    db = np.zeros_like(p.b)
    dx = np.empty_like(cache.x)
    dh_next = np.zeros((n, d_h))
    dc = np.zeros((n, d_h))
    zeros = np.zeros((n, d_h))   # the initial h and c

    da = np.empty((n, 4 * d_h))
    for t in range(t_len - 1, -1, -1):
        gt = cache.gates[:, t]
        f, i, g, o = (gt[:, k * d_h:(k + 1) * d_h] for k in range(4))
        tc = cache.tanh_c[:, t]
        c_prev = cache.c[:, t - 1] if t > 0 else zeros
        h_prev = cache.h[:, t - 1] if t > 0 else zeros

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

        dW += da.T @ cache.x[:, t]
        dR += da.T @ h_prev
        db += da.sum(axis=0)
        dx[:, t] = da @ p.W
        dh_next = da @ p.R
        dc = dc * f

    return LstmParams(dW, dR, db), dx


@dataclass
class AdamState:
    """First/second moment estimates aligned with ParamSet.flat_arrays()."""

    m: list
    v: list
    step: int = 0


def init_adam(params):
    return AdamState([np.zeros_like(a) for a in params.flat_arrays()],
                     [np.zeros_like(a) for a in params.flat_arrays()], 0)


def adam_step(params, grads, state, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """One bias-corrected Adam update. Returns (new_params, new_state)."""
    t = state.step + 1
    new = params.copy()
    new_m, new_v = [], []
    arrays = new.flat_arrays()
    for a, g, m, v in zip(arrays, grads.flat_arrays(), state.m, state.v):
        m1 = beta1 * m + (1.0 - beta1) * g
        v1 = beta2 * v + (1.0 - beta2) * g * g
        m_hat = m1 / (1.0 - beta1 ** t)
        v_hat = v1 / (1.0 - beta2 ** t)
        a -= lr * m_hat / (np.sqrt(v_hat) + eps)
        new_m.append(m1)
        new_v.append(v1)
    return new, AdamState(new_m, new_v, t)


def global_norm(grads):
    """L2 norm over every gradient array taken together."""
    total = 0.0
    for g in grads.flat_arrays():
        total += float(np.sum(g * g))
    return np.sqrt(total)


def clip_global_norm(grads, max_norm):
    """Scale all gradients down so their joint L2 norm is at most max_norm."""
    norm = global_norm(grads)
    if norm <= max_norm or norm == 0.0:
        return grads, norm
    scale = max_norm / norm
    clipped = grads.copy()
    for g in clipped.flat_arrays():
        g *= scale
    return clipped, norm


def finite_diff_grad(loss_fn, params, eps=1e-5):
    """Central-difference gradient of a scalar loss over every parameter.

    Perturbs one coordinate at a time, so cost is two loss evaluations per
    parameter. Intended as a correctness oracle at toy sizes, not for
    training.
    """
    grads = params.zeros_like()
    work = params.copy()
    for arr, garr in zip(work.flat_arrays(), grads.flat_arrays()):
        flat = arr.reshape(-1)
        gflat = garr.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + eps
            up = loss_fn(work)
            flat[j] = orig - eps
            down = loss_fn(work)
            flat[j] = orig
            if not (np.isfinite(up) and np.isfinite(down)):
                raise NumericError("loss is non-finite near the given parameters")
            gflat[j] = (up - down) / (2.0 * eps)
    return grads


def max_rel_error(grads_a, grads_b):
    """Worst-case elementwise relative error between two gradient sets.

    The denominator is floored at 1.0 so coordinates near zero compare
    absolutely instead of blowing up.
    """
    worst = 0.0
    for a, b in zip(grads_a.flat_arrays(), grads_b.flat_arrays()):
        denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
        worst = max(worst, float(np.max(np.abs(a - b) / denom)))
    return worst


def save_params(params, path):
    """Write a ParamSet to a flat binary file (little-endian float64)."""
    chunks = [_MAGIC,
              struct.pack("<III", len(params.layers), params.n_encoder,
                          params.n_classes)]
    for layer in params.layers:
        chunks.append(struct.pack("<II", layer.d_x, layer.d_h))
    for arr in params.flat_arrays():
        chunks.append(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(chunks))


def load_params(path):
    """Read a ParamSet written by save_params.

    Raises FormatError when the file is not a complete parameter file:
    a wrong magic number, a header, layer table or array cut short,
    sizes that do not chain, or bytes left over at the end.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != _MAGIC:
        raise FormatError(f"{path} is not a parameter file")
    off = 4

    def take_bytes(size):
        nonlocal off
        if off + size > len(blob):
            raise FormatError(f"{path} is truncated; file is corrupt")
        off += size
        return off - size

    def take(shape):
        count = math.prod(shape)
        start = take_bytes(8 * count)
        arr = np.frombuffer(blob, dtype="<f8", count=count, offset=start)
        return arr.reshape(shape).astype(np.float64)

    n_layers, n_encoder, n_classes = struct.unpack_from(
        "<III", blob, take_bytes(12))
    if not 1 <= n_encoder <= n_layers:
        raise FormatError(
            f"{path} names encoder layer {n_encoder} of {n_layers}; "
            "file is corrupt")
    dims = [struct.unpack_from("<II", blob, take_bytes(8))
            for _ in range(n_layers)]
    layers = [LstmParams(take((4 * d_h, d_x)), take((4 * d_h, d_h)),
                         take((4 * d_h,)))
              for d_x, d_h in dims]
    d_z = dims[n_encoder - 1][1]
    W_c = take((n_classes, d_z))
    b_c = take((n_classes,))
    if off != len(blob):
        raise FormatError(f"{path} has trailing bytes; file is corrupt")
    try:
        return ParamSet(layers, W_c, b_c, n_encoder)
    except DimensionError as exc:
        raise FormatError(f"{path}: {exc}") from exc
