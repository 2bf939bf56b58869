"""Deep LSTM supervised autoencoder.

An encoder LSTM stack maps each window to per-timestep latents; a decoder
LSTM stack (last hidden size = feature count) reconstructs the window; a
softmax head on the final-timestep latent predicts the class. The loss is

    (1/N) [ lam1 * sum ||x - x_hat||^2
          + lam2 * sum cross-entropy
          + lam3 * sum ||W||^2 over weight matrices ]

where the regularizer covers input/recurrent kernels and the classifier
matrix but no biases.
"""

from dataclasses import dataclass, asdict, replace
import math

import numpy as np

from .dataio import (INTEGER, INTEGERS, NUMBER, Scaler, WindowBatch,
                     read_fields, read_json, write_json)
from .errors import (ConfigError, DimensionError, FormatError,
                     NumericDivergenceError)
from .recurrent import (ParamSet, adam_step, clip_global_norm, init_adam,
                        init_params, load_params, lstm_backward,
                        lstm_forward_batch, lstm_hidden_batch, save_params,
                        softmax)

LOG_CLAMP = 1e-12
GRAD_CLIP = 5.0
# Master weights at this size (the square root of the largest float32,
# about 1.8e19) or beyond count as divergence in train and as a corrupt
# params.bin in load_model; see _check_weights.
F32_WEIGHT_LIMIT = float(np.sqrt(np.finfo(np.float32).max))

# Learning-rate grid searched by default; the other fields stay at the
# base config unless a search space overrides them.
DEFAULT_SEARCH_SPACE = {"learning_rate": [1e-1, 2e-1, 3e-1, 1e-2]}
# Configs that `fddkit tune` samples when its config names no budget,
# and the most it samples.
DEFAULT_BUDGET = 4
MAX_BUDGET = 1000
# Most epochs a ModelConfig trains for.
MAX_EPOCHS = 10000

# Epochs of the first successive-halving stage; each later stage doubles it.
STAGE_EPOCHS = 2

# Most input values (windows x steps x channels) that TrainedModel.predict
# standardizes and runs through the encoder at once; a larger batch goes
# in equal chunks, so the scaled copy and the input projection stay
# bounded. A chunk keeps at least two windows: a one-row product takes
# BLAS's matrix-vector path, whose rounding differs from the batch's.
PREDICT_CHUNK_VALUES = 2 ** 20


# Field table of the ModelConfig fields a config's model node (and each
# candidate list of tune's search space) may set.
MODEL_FIELDS = {
    "encoder": INTEGERS, "decoder": INTEGERS, "lam1": NUMBER, "lam2": NUMBER,
    "lam3": NUMBER, "learning_rate": NUMBER, "epochs": INTEGER,
    "batch_size": INTEGER,
}


@dataclass
class ModelConfig:
    encoder: tuple
    decoder: tuple
    n_features: int
    n_classes: int
    horizon: int
    lam1: float = 1.0
    lam2: float = 1.0
    lam3: float = 1e-4
    learning_rate: float = 1e-2
    epochs: int = 30
    batch_size: int = 64
    seed: int = 0

    def __post_init__(self):
        self.encoder = tuple(int(v) for v in self.encoder)
        self.decoder = tuple(int(v) for v in self.decoder)
        if not self.encoder or not self.decoder:
            raise ConfigError("encoder and decoder need at least one layer each")
        if self.horizon < 1:
            raise ConfigError("horizon must be at least 1")
        if self.n_classes < 2:
            raise ConfigError("need at least two classes")
        if min(self.lam1, self.lam2, self.lam3) < 0:
            raise ConfigError("loss weights must be nonnegative")
        if self.decoder[-1] != self.n_features:
            raise DimensionError(
                f"decoder must end at the feature count {self.n_features}, "
                f"got {self.decoder[-1]}")
        if self.batch_size < 1 or self.epochs < 0:
            raise ConfigError("batch_size must be >= 1 and epochs >= 0")
        if self.epochs > MAX_EPOCHS:
            raise ConfigError(f"config key 'epochs' must be at most "
                              f"{MAX_EPOCHS}, not {self.epochs}")
        if not self.learning_rate > 0:
            raise ConfigError(f"learning_rate must be positive, not "
                              f"{self.learning_rate}")

    @property
    def d_z(self):
        return self.encoder[-1]

    def layer_dims(self):
        dims = []
        prev = self.n_features
        for size in self.encoder + self.decoder:
            dims.append((prev, size))
            prev = size
        return dims


def build_params(config):
    return init_params(config.layer_dims(), config.n_classes, config.seed,
                       n_encoder=len(config.encoder))


def _as_windows(batch):
    """The windows of a WindowBatch or an array, in their own dtype."""
    return batch.windows if isinstance(batch, WindowBatch) else np.asarray(batch)


def _forward_caches(windows, params):
    caches = []
    cur = windows
    z_seq = None
    for k, layer in enumerate(params.layers):
        h, _, cache = lstm_forward_batch(cur, layer)
        caches.append(cache)
        cur = h
        if k == params.n_encoder - 1:
            z_seq = h
    return cur, _class_probs(z_seq, params), z_seq, caches


def _class_probs(z_seq, params):
    """Softmax head on the final-timestep latent of z_seq (N, T, d_z)."""
    return softmax(z_seq[:, -1] @ params.W_c.T + params.b_c)


def model_forward(batch, params, config=None):
    """Run the full model.

    Returns (reconstructions N x H x d_x, class probabilities N x m,
    final-timestep latents N x d_z).
    """
    windows = _as_windows(batch)
    if config is not None and windows.shape[2] != config.n_features:
        raise DimensionError(
            f"batch has {windows.shape[2]} features, config expects "
            f"{config.n_features}")
    recon, probs, z_seq, _ = _forward_caches(windows, params)
    return recon, probs, z_seq[:, -1]


def _reg_sum(params):
    total = 0.0
    for layer in params.layers:
        total += float(np.sum(layer.W ** 2) + np.sum(layer.R ** 2))
    return total + float(np.sum(params.W_c ** 2))


def sae_loss(recon, inputs, probs, labels, lam1, lam2, lam3, params):
    """Composite loss; see the module docstring for the exact form."""
    if min(lam1, lam2, lam3) < 0:
        raise ConfigError("loss weights must be nonnegative")
    recon = np.asarray(recon)
    inputs = np.asarray(inputs)
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if recon.shape != inputs.shape:
        raise DimensionError("reconstruction and input shapes differ")
    n = recon.shape[0]
    # summed in float64 whatever the dtype of the reconstruction
    mse = float(np.sum(np.square(inputs - recon), dtype=np.float64))
    p_true = np.clip(probs[np.arange(n), labels], LOG_CLAMP, None)
    ce = float(-np.sum(np.log(p_true)))
    return (lam1 * mse + lam2 * ce + lam3 * _reg_sum(params)) / n


def loss_and_grads(windows, labels, params, config):
    """Loss plus exact gradients for one (already standardized) batch.

    The passes run in the dtype of params, the windows are cast to it,
    and the gradients come back in it.
    """
    windows = np.asarray(windows, dtype=params.dtype)
    labels = np.asarray(labels, dtype=np.int64)
    recon, probs, z_seq, caches = _forward_caches(windows, params)
    loss = sae_loss(recon, windows, probs, labels, config.lam1, config.lam2,
                    config.lam3, params)

    n = windows.shape[0]
    n_enc = params.n_encoder
    grads = params.zeros_like()

    grad_h = (2.0 * config.lam1 / n) * (recon - windows)
    for k in range(len(params.layers) - 1, n_enc - 1, -1):
        grads.layers[k], grad_h = lstm_backward(caches[k], grad_h)

    onehot = np.zeros_like(probs)
    onehot[np.arange(n), labels] = 1.0
    dlogits = (config.lam2 / n) * (probs - onehot)
    grads.W_c[...] = dlogits.T @ z_seq[:, -1]
    grads.b_c[...] = dlogits.sum(axis=0)
    grad_h[:, -1] += dlogits @ params.W_c

    for k in range(n_enc - 1, -1, -1):
        # the windows need no gradient, so the first layer skips it
        grads.layers[k], grad_h = lstm_backward(caches[k], grad_h,
                                                grad_input=k > 0)

    scale = 2.0 * config.lam3 / n
    for gl, pl in zip(grads.layers, params.layers):
        gl.W += scale * pl.W
        gl.R += scale * pl.R
    grads.W_c += scale * params.W_c
    return loss, grads


def predict_proba(params, batch):
    """Class probabilities from the encoder and the head alone: the
    decoder does not affect them, and no backward cache is kept. The
    pass runs in the dtype of params; the windows go to the first layer
    as they are, which casts them to that dtype, so float32 windows meet
    float32 params with no copy and no upcast."""
    z_seq = _as_windows(batch)
    for layer in params.layers[:params.n_encoder]:
        z_seq = lstm_hidden_batch(z_seq, layer)
    return _class_probs(z_seq, params)


def predict(params, batch):
    return np.argmax(predict_proba(params, batch), axis=1)


def batch_accuracy(model, batch):
    """Accuracy of a TrainedModel on a WindowBatch of raw windows, scored
    by TrainedModel.predict."""
    if len(batch) == 0:
        return math.nan
    return float(np.mean(model.predict(batch) == batch.labels))


@dataclass
class TrainedModel:
    """Frozen training outcome. train fits scaler on the training
    windows, and predict applies it, so callers pass raw windows; a
    model built by hand that reads its windows as given carries
    Scaler(zeros, ones). params are the float64 master weights; predict
    runs on a float32 copy of them, as a training step does."""

    config: ModelConfig
    params: ParamSet
    history: list
    scaler: Scaler

    def predict(self, batch):
        """Class indices for raw windows, an array or a WindowBatch,
        standardized and predicted in equal chunks of at most
        PREDICT_CHUNK_VALUES input values each; DimensionError for
        windows of another length than the model was trained on.

        Each chunk is standardized in float64 and cast to float32, and
        the encoder and head run in float32 on a float32 copy of params:
        bit for bit the forward pass of a training step on the same
        weights and windows. FormatError if a standardized window holds
        a value float32 cannot."""
        windows = _as_windows(batch)
        if windows.shape[1] != self.config.horizon:
            raise DimensionError(
                f"windows have {windows.shape[1]} samples, the model was "
                f"trained on {self.config.horizon}")
        n_chunks = min(-(-windows.size // PREDICT_CHUNK_VALUES),
                       len(windows) // 2)
        params = self.params.astype(np.float32)
        preds = []
        for chunk in np.array_split(windows, max(n_chunks, 1)):
            # the float32 copy is allocated before the scaled float64
            # chunk it is cast from, so freeing that leaves the heap no
            # hole below it (a hole raised archive_track's peak RSS)
            scaled = np.empty(chunk.shape, np.float32)
            try:
                with np.errstate(over="raise"):
                    np.copyto(scaled, self.scaler.apply(chunk),
                              casting="same_kind")
            except FloatingPointError:
                raise FormatError("standardized windows overflow float32: "
                                  "the scaler does not fit this data") from None
            # as in a training step, an overflow inside the pass warns
            # nothing: an infinite preactivation saturates its gate, and
            # a NaN reaches softmax, which rejects it
            with np.errstate(over="ignore", invalid="ignore"):
                preds.append(predict(params, scaled))
        return np.concatenate(preds)


def _fits_float32(params):
    """Whether every weight is finite and of magnitude below
    F32_WEIGHT_LIMIT, so that the float32 passes can take it."""
    return all(np.all(np.abs(a) < F32_WEIGHT_LIMIT)
               for a in params.flat_arrays())


def _check_weights(params, epoch):
    """NumericDivergenceError if an Adam update left a master weight
    non-finite or with a square that overflows float32, which would make
    the next step's float32 loss non-finite."""
    if not _fits_float32(params):
        raise NumericDivergenceError(
            f"weights outgrew float32 in epoch {epoch}")


def train(train_batch, val_batch, config):
    """Minibatch Adam on the composite loss, on raw windows: a Scaler
    fitted on the training windows standardizes each minibatch as it is
    drawn and the validation windows as they are scored, and the
    returned model carries it. Shuffling, initialization, and therefore
    the whole run are fixed by config.seed. When a validation batch is
    given, the returned parameters are the epoch snapshot with the best
    validation accuracy (earliest epoch on ties); otherwise the final
    parameters.

    Mixed precision: each minibatch's loss and gradients are computed in
    float32, on float32 copies of the parameters and of the gathered
    windows, and the gradients are cast back to float64. The parameters
    (the master weights), the Adam moments, clipping and the returned
    parameters stay float64, so zero epochs return the exact
    initialization. Validation scores with TrainedModel.predict, the
    float32 inference every caller runs. Master weights of
    F32_WEIGHT_LIMIT (about 1.8e19) or more, or a non-finite loss, raise
    NumericDivergenceError naming the epoch, and a non-finite gradient
    norm raises it too.
    """
    if len(train_batch) == 0:
        raise ConfigError("training batch is empty")
    if train_batch.n_features != config.n_features:
        raise DimensionError("training data feature count differs from config")
    if train_batch.horizon != config.horizon:
        raise DimensionError("training window length differs from config")
    scaler = Scaler.fit(train_batch.windows)
    use_val = val_batch is not None and len(val_batch) > 0
    params = build_params(config)
    state = init_adam(params)
    rng = np.random.default_rng([config.seed, 1])
    n = len(train_batch)
    history = []
    best_acc, best_params = -1.0, None

    for epoch in range(config.epochs):
        order = rng.permutation(n)
        loss_sum = 0.0
        for lo in range(0, n, config.batch_size):
            idx = order[lo:lo + config.batch_size]
            step_params = params.astype(np.float32)
            # an overflow in the float32 step gives an infinite loss,
            # which is reported as divergence just below; the scaled
            # float64 minibatch is passed, not kept, so it is freed once
            # loss_and_grads has cast it
            with np.errstate(over="ignore", invalid="ignore"):
                loss, grads = loss_and_grads(
                    scaler.apply(train_batch.windows[idx]),
                    train_batch.labels[idx], step_params, config)
            if not np.isfinite(loss):
                raise NumericDivergenceError(
                    f"loss became non-finite in epoch {epoch}")
            grads, _ = clip_global_norm(grads.astype(np.float64), GRAD_CLIP)
            # an update that overflows is reported as divergence below
            with np.errstate(over="ignore", invalid="ignore"):
                params, state = adam_step(params, grads, state,
                                          lr=config.learning_rate)
            _check_weights(params, epoch)
            loss_sum += loss * idx.size
        val_acc = (batch_accuracy(TrainedModel(config, params, [], scaler),
                                  val_batch) if use_val else math.nan)
        history.append({"epoch": epoch, "loss": loss_sum / n,
                        "val_accuracy": val_acc})
        if use_val and val_acc > best_acc:
            best_acc, best_params = val_acc, params.copy()

    final = best_params if (use_val and best_params is not None) else params
    return TrainedModel(config, final, history, scaler)


def tune(train_batch, val_batch, search_space, budget, base):
    """Successive-halving hyperparameter search around a base config.

    Samples `budget` configs from the search space with base.seed, trains
    each from scratch for a short stage, keeps the better half by
    validation accuracy (lower trial index on ties), doubles the stage
    length, and repeats until one survives. Returns that trial's config
    with the base epoch count restored.
    """
    if not search_space:
        raise ConfigError("search space is empty")
    if not 1 <= budget <= MAX_BUDGET:
        raise ConfigError(f"config key 'budget' must be between 1 and "
                          f"{MAX_BUDGET}, not {budget}")
    if val_batch is None or len(val_batch) == 0:
        raise ConfigError("tuning needs a nonempty validation batch")

    rng = np.random.default_rng(base.seed)
    trials = []
    for j in range(budget):
        drawn = {key: search_space[key][rng.integers(len(search_space[key]))]
                 for key in sorted(search_space)}
        trials.append(replace(base, seed=base.seed + j, **drawn))

    alive = list(range(budget))
    stage = STAGE_EPOCHS
    while len(alive) > 1:
        scored = []
        for j in alive:
            cfg = replace(trials[j], epochs=stage)
            model = train(train_batch, val_batch, cfg)
            # train returns its best validation epoch's snapshot, so that
            # epoch's recorded accuracy is the model's: no second pass
            acc = max(row["val_accuracy"] for row in model.history)
            scored.append((j, acc))
        scored.sort(key=lambda item: (-item[1], item[0]))
        alive = sorted(j for j, _ in scored[:math.ceil(len(scored) / 2)])
        stage *= 2
    return replace(trials[alive[0]], epochs=base.epochs)


def save_model(model, directory):
    """Write params.bin, config.json, history.tsv and scaler.json."""
    directory.mkdir(parents=True, exist_ok=True)
    save_params(model.params, directory / "params.bin")
    cfg = asdict(model.config)
    cfg["encoder"] = list(model.config.encoder)
    cfg["decoder"] = list(model.config.decoder)
    write_json(directory / "config.json", cfg)
    with open(directory / "history.tsv", "w") as fh:
        fh.write("epoch\tloss\tval_accuracy\n")
        for row in model.history:
            fh.write(f"{row['epoch']}\t{row['loss']:.17g}\t"
                     f"{row['val_accuracy']:.17g}\n")
    model.scaler.save(directory / "scaler.json")


def load_model(directory):
    """Read a save_model directory; FormatError if a file is damaged."""
    path = directory / "config.json"
    fields = {**MODEL_FIELDS, "n_features": INTEGER, "n_classes": INTEGER,
              "horizon": INTEGER, "seed": INTEGER}
    config = ModelConfig(**read_fields(
        read_json(path), fields, path, FormatError,
        required=("encoder", "decoder", "n_features", "n_classes",
                  "horizon")))
    path = directory / "params.bin"
    params = load_params(path)
    # train never saves such a weight (see _check_weights)
    if not _fits_float32(params):
        raise FormatError(f"{path} holds a weight of magnitude "
                          f"{F32_WEIGHT_LIMIT:.3g} or more; file is corrupt")
    if ([(layer.d_x, layer.d_h) for layer in params.layers]
            != config.layer_dims()
            or params.n_encoder != len(config.encoder)
            or params.W_c.shape[0] != config.n_classes):
        raise FormatError(f"{directory}: config.json and params.bin "
                          f"describe different networks")
    path = directory / "history.tsv"
    history = []
    try:
        for line in path.read_text().splitlines()[1:]:
            epoch, loss, acc = line.split("\t")
            history.append({"epoch": int(epoch), "loss": float(loss),
                            "val_accuracy": float(acc)})
    except ValueError as exc:
        raise FormatError(f"{path}: not a training history ({exc})") from None
    return TrainedModel(config, params, history,
                        Scaler.load(directory / "scaler.json"))
