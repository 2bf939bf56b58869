"""LSTM forward/backward passes, softmax, Adam, and a finite-difference gradient oracle.

All math is dense numpy in the dtype of the parameters: a layer or
ParamSet holds float32 or float64 arrays, one dtype per set, and every
pass casts its input to that dtype and allocates and computes in it. So
float64 parameters give float64 arithmetic throughout, and float32
parameters (``ParamSet.astype``), as the training step uses them, give
float32 arithmetic with no upcast inside the step loop. Gate blocks are
packed row-wise in the order forget, input, candidate, output, so W has
shape (4*d_h, d_x), R has shape (4*d_h, d_h) and b has shape (4*d_h,).

Time steps are a Python loop, so the cost of a pass is the cost of its
per-step numpy calls, and those run fastest on contiguous operands. So
every array the loop reads or writes per step is laid out time-major:

- sequences (the input, ``h``, ``c``, ``tanh_c``, the hidden-state
  gradient and the input gradient) keep their (N, T, d) shape but are
  views of (T, N, d) memory, so ``[:, t]`` is one contiguous block; an
  input that already is such a view (the previous layer's ``h``, the next
  layer's input gradient) is used without a copy;
- the gate activations are gate-major, (T, 4, N, d_h), so forget, input,
  candidate and output at step t are four contiguous (N, d_h) blocks.

The products keep their batch-major operands, so they round as a plain
(N, T, d) layout would: the input projection ``x @ W.T`` is taken over
(N, T, d_x) and copied into gate-major order with the bias added on the
way, the recurrent term ``h @ R.T`` is added through a (4, N, d_h) view
of its rows, and the backward pass writes the gate gradients into the
(N, 4*d_h) array that its products read.

Both forward passes run the same in-place step on a (4, N, d_h)
preactivation: ``sigmoid`` over the forget and input blocks and over
the output block, ``tanh`` over the candidate block, and the cell state,
its tanh and the hidden state written straight into their arrays.
``lstm_forward_batch`` is the training pass: its step works in the gate
array and the sequences that ``lstm_backward`` reads back.
``lstm_hidden_batch`` is the inference pass: it returns only the hidden
sequence, reusing one preactivation and one cell buffer across steps, so
it allocates no full-length gate or cell arrays. Both give the same
hidden states bit for bit.
"""

from dataclasses import dataclass, field
import math
import struct

import numpy as np

from .errors import (DimensionError, FormatError, NumericDivergenceError,
                     NumericError)

_MAGIC = b"FDK1"


def _float_array(x):
    """x as an array of float32 if it is one, else of float64."""
    x = np.asarray(x)
    return x if x.dtype == np.float32 else x.astype(np.float64, copy=False)


def sigmoid(x, out=None):
    """Numerically stable logistic function.

    1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) below, so exp
    never overflows. Both branches share e = exp(-|x|), and the numerator
    is max(e, x >= 0): 1 where x >= 0 (e <= 1 there) and e elsewhere,
    with no boolean-mask gathers and scatters. ``out``, as in numpy, may
    be x itself. float32 input gives float32 output; any other input is
    taken as float64.
    """
    x = _float_array(x)
    e = np.exp(-np.abs(x))
    out = np.maximum(e, x >= 0, out=out)
    e += 1.0
    out /= e
    return out


def softmax(logits):
    """Softmax along the last axis, shifted by the row max for stability,
    in float32 for float32 logits and in float64 otherwise."""
    logits = _float_array(logits)
    if not np.all(np.isfinite(logits)):
        raise NumericError("softmax received non-finite logits")
    shifted = logits - np.max(logits, axis=-1, keepdims=True)
    ex = np.exp(shifted)
    return ex / np.sum(ex, axis=-1, keepdims=True)


@dataclass
class LstmParams:
    """One recurrent layer: input kernel W, recurrent kernel R, bias b.

    W sets the layer's dtype (float32 if it is float32, else float64), and
    R and b are cast to it.
    """

    W: np.ndarray
    R: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.W = _float_array(self.W)
        self.R = np.asarray(self.R, dtype=self.W.dtype)
        self.b = np.asarray(self.b, dtype=self.W.dtype)
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
    hidden size of that layer. Every array has the first layer's dtype.
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
        dtype = self.layers[0].W.dtype
        if any(layer.W.dtype != dtype for layer in self.layers):
            raise TypeError("the layers of a ParamSet differ in dtype")
        self.W_c = np.asarray(self.W_c, dtype=dtype)
        self.b_c = np.asarray(self.b_c, dtype=dtype)
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

    @property
    def dtype(self):
        return self.W_c.dtype

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

    def astype(self, dtype):
        """A copy with every array cast to dtype, float32 or float64."""
        return ParamSet([LstmParams(*(a.astype(dtype)
                                      for a in (la.W, la.R, la.b)))
                         for la in self.layers],
                        self.W_c.astype(dtype), self.b_c.astype(dtype),
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
        try:
            W = rng.uniform(-sw, sw, size=(4 * d_h, d_x))
            R = rng.uniform(-sr, sr, size=(4 * d_h, d_h))
        except ValueError:   # numpy's "array is too big" and its kin
            raise DimensionError(f"a layer of {d_h} units on {d_x} inputs "
                                 f"is too large to allocate") from None
        b = np.zeros(4 * d_h)
        b[:d_h] = 1.0
        layers.append(LstmParams(W, R, b))
    if n_encoder is None:
        n_encoder = len(layers)
    d_z = layers[n_encoder - 1].d_h
    sc = np.sqrt(1.0 / d_z)
    try:
        W_c = rng.uniform(-sc, sc, size=(n_classes, d_z))
    except ValueError:
        raise DimensionError(f"a head of {n_classes} classes on {d_z} "
                             f"latents is too large to allocate") from None
    b_c = np.zeros(n_classes)
    return ParamSet(layers, W_c, b_c, n_encoder)


@dataclass
class LstmCache:
    """Everything the backward pass needs from one layer's forward pass.

    The sequences are (N, T, d) views of time-major (T, N, d) memory, so
    the per-step slice ``[:, t]`` is contiguous.
    """

    x: np.ndarray        # (N, T, d_x)
    h: np.ndarray        # (N, T, d_h)
    c: np.ndarray        # (N, T, d_h)
    gates: np.ndarray    # (T, 4, N, d_h): forget, input, candidate, output
    tanh_c: np.ndarray   # (N, T, d_h)
    params: LstmParams


def _checked_input(x, params):
    """The input as (N, T, d_x) in the layer's dtype; rejects a wrong rank,
    non-finite values and a feature size the layer does not take."""
    x = np.asarray(x, dtype=params.W.dtype)
    if x.ndim != 3:
        raise DimensionError(f"expected (N, T, d_x) input, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise NumericError("LSTM input contains non-finite values")
    if x.shape[2] != params.d_x:
        raise DimensionError(
            f"input feature size {x.shape[2]} does not match layer input "
            f"size {params.d_x}")
    return x


def _time_major(a):
    """The (T, N, d) time-major memory of an (N, T, d) array: a view when
    a already is one of such memory (a layer's h or dx), else a copy."""
    return np.ascontiguousarray(a.transpose(1, 0, 2))


def _gate_rows(a):
    """(N, 4*d_h) packed gates as a (4, N, d_h) view, one block per gate."""
    return a.reshape(a.shape[0], 4, -1).transpose(1, 0, 2)


def _gate_step(a, c_prev, c, tanh_c, h):
    """One time step, in place, from the gate-major preactivation a
    (4, N, d_h): a becomes the gate activations, and the cell state, tanh
    of the cell state and the hidden state are written into c, tanh_c and
    h. c may be c_prev, and tanh_c may be h."""
    sigmoid(a[:2], out=a[:2])
    sigmoid(a[3], out=a[3])
    np.tanh(a[2], out=a[2])
    f, i, g, o = a
    np.multiply(f, c_prev, out=c)
    c += i * g
    np.tanh(c, out=tanh_c)
    np.multiply(o, tanh_c, out=h)


def _gate_major(xw, b, out):
    """Copy the batch-major input projection xw (N, ..., 4*d_h) into the
    gate-major out (..., 4, N, d_h), adding the bias b on the way."""
    n, d_h = xw.shape[0], b.size // 4
    xw = xw.reshape(n, -1, 4, d_h).transpose(1, 2, 0, 3).reshape(out.shape)
    np.add(xw, b.reshape(4, 1, d_h), out=out)


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
    d_h, dtype = params.d_h, params.W.dtype

    h = np.empty((t_len, n, d_h), dtype)
    c = np.empty((t_len, n, d_h), dtype)
    tanh_c = np.empty((t_len, n, d_h), dtype)

    # Hoist the input projection out of the time loop; only the recurrent
    # term depends on the previous step. The product stays batch-major (a
    # time-major one can take another BLAS path and round differently);
    # the gate array holds its copy and each step overwrites its slice.
    gates = np.empty((t_len, 4, n, d_h), dtype)
    _gate_major(x @ params.W.T, params.b, gates)
    h_prev = c_prev = np.zeros((n, d_h), dtype)
    for t in range(t_len):
        a = gates[t]
        a += _gate_rows(h_prev @ params.R.T)
        _gate_step(a, c_prev, c[t], tanh_c[t], h[t])
        h_prev, c_prev = h[t], c[t]

    h, c, tanh_c = (s.transpose(1, 0, 2) for s in (h, c, tanh_c))
    x = _time_major(x).transpose(1, 0, 2)
    cache = LstmCache(x, h, c, gates, tanh_c, params)
    return h, c, cache


def lstm_hidden_batch(x, params):
    """Hidden states of one LSTM layer over a batch of sequences.

    Same arguments, checks and arithmetic as lstm_forward_batch, so the
    result equals its ``h`` bit for bit, but nothing is kept for a
    backward pass: besides the input projection, the only full-length
    array it allocates is the hidden sequence, (N, T, d_h) over
    time-major memory.
    """
    x = _checked_input(x, params)
    n, t_len, _ = x.shape
    d_h, dtype = params.d_h, params.W.dtype
    h = np.empty((t_len, n, d_h), dtype)
    a = np.empty((4, n, d_h), dtype)
    c = np.zeros((n, d_h), dtype)
    h_prev = np.zeros((n, d_h), dtype)
    # batch-major like lstm_forward_batch, and copied one step at a time
    # into the preactivation buffer, so no second (N, T, 4*d_h) array is
    # made; tanh of the cell state goes straight into h[t]
    xw = x @ params.W.T
    for t in range(t_len):
        _gate_major(xw[:, t], params.b, a)
        a += _gate_rows(h_prev @ params.R.T)
        _gate_step(a, c, c, h[t], h[t])
        h_prev = h[t]
    return h.transpose(1, 0, 2)


def lstm_backward(cache, grad_h, grad_input=True):
    """Backpropagate through one layer's unrolled forward pass, in the
    dtype of the layer's parameters.

    Parameters
    ----------
    cache : LstmCache
        From lstm_forward_batch.
    grad_h : ndarray, shape (N, T, d_h)
        Loss gradient with respect to every hidden state.
    grad_input : bool
        False skips the input gradient (the first layer of a stack has no
        use for it); dW, dR and db do not depend on it.

    Returns
    -------
    grads : LstmParams
        Accumulated dW, dR, db.
    grad_x : ndarray or None
        Gradient with respect to the layer input, same shape as x, over
        time-major memory; None when grad_input is False.
    """
    p = cache.params
    grad_h = np.asarray(grad_h, dtype=p.W.dtype)
    if grad_h.shape != cache.h.shape:
        raise DimensionError(
            f"grad_h shape {grad_h.shape} does not match h {cache.h.shape}")
    n, t_len, d_h = cache.h.shape
    dtype = p.W.dtype
    xs, hs, cs, tcs = (s.transpose(1, 0, 2) for s in
                       (cache.x, cache.h, cache.c, cache.tanh_c))
    grad_h = _time_major(grad_h)

    dW = np.zeros_like(p.W)
    dR = np.zeros_like(p.R)
    db = np.zeros_like(p.b)
    dx = np.empty((t_len, n, p.d_x), dtype) if grad_input else None
    dh_next = np.zeros((n, d_h), dtype)
    dc = np.zeros((n, d_h), dtype)
    zeros = np.zeros((n, d_h), dtype)   # the initial h and c

    da = np.empty((n, 4 * d_h), dtype)
    for t in range(t_len - 1, -1, -1):
        f, i, g, o = cache.gates[t]
        tc = tcs[t]
        c_prev = cs[t - 1] if t > 0 else zeros
        h_prev = hs[t - 1] if t > 0 else zeros

        dh = grad_h[t] + dh_next
        do = dh * tc
        dc = dc + dh * o * (1.0 - tc * tc)
        df = dc * c_prev
        di = dc * g
        dg = dc * i

        da[:, :d_h] = df * f * (1.0 - f)
        da[:, d_h:2 * d_h] = di * i * (1.0 - i)
        da[:, 2 * d_h:3 * d_h] = dg * (1.0 - g * g)
        da[:, 3 * d_h:] = do * o * (1.0 - o)

        dW += da.T @ xs[t]
        dR += da.T @ h_prev
        db += da.sum(axis=0)
        if grad_input:
            dx[t] = da @ p.W
        dh_next = da @ p.R
        dc = dc * f

    if grad_input:
        dx = dx.transpose(1, 0, 2)
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
    """Scale all gradients down so their joint L2 norm is at most max_norm;
    NumericDivergenceError if the norm is not finite."""
    norm = global_norm(grads)
    if not np.isfinite(norm):
        raise NumericDivergenceError(f"gradient norm became {norm}")
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
    sizes that do not chain, bytes left over at the end, or a value that
    is not finite.
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
    arrays_at = off
    layers = [LstmParams(take((4 * d_h, d_x)), take((4 * d_h, d_h)),
                         take((4 * d_h,)))
              for d_x, d_h in dims]
    d_z = dims[n_encoder - 1][1]
    W_c = take((n_classes, d_z))
    b_c = take((n_classes,))
    if off != len(blob):
        raise FormatError(f"{path} has trailing bytes; file is corrupt")
    if not np.all(np.isfinite(np.frombuffer(blob, dtype="<f8",
                                            offset=arrays_at))):
        raise FormatError(f"{path} holds non-finite parameter values; "
                          "file is corrupt")
    try:
        return ParamSet(layers, W_c, b_c, n_encoder)
    except DimensionError as exc:
        raise FormatError(f"{path}: {exc}") from exc
