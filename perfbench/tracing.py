"""Spans around every public function of the fddkit modules.

``Tracer.install`` replaces each public function and each public method
of a public class, in every ``fddkit`` namespace that binds it, by a
wrapper that records one span: name, parent, operation id, start and
end (``perf_counter_ns``) and, for some names, a few counts read from
the arguments or the result. Spans stay in memory until ``write``.
``uninstall`` puts the original objects back.

``layer_metrics`` turns the spans of one traced pass into the per-layer
figures listed in README.md.
"""

import functools
import importlib
import inspect
import json
import sys
import time

import numpy as np

LAYERS = ("plant", "prbs", "dataio", "recurrent", "model", "hierarchy",
          "metrics", "pipeline", "cli")

ROUTE = ("hierarchy.HierarchicalModel.infer_batch",
         "pipeline.infer_with_twins")
SCALE = ("dataio.Scaler.apply", "dataio.Scaler.fit",
         "dataio.WindowBatch.scaled")
EVALUATE = ("pipeline.evaluate_classifier", "pipeline.evaluate_hierarchical")


def _n(batch):
    """Window count of a WindowBatch or an (N, T, d) array."""
    return len(batch) if hasattr(batch, "windows") else np.shape(batch)[0]


class Tracer:
    def __init__(self):
        # one list per span: [name, parent, op, start_ns, end_ns, info]
        self.spans = []
        self.op = None
        self._open = []
        self._patched = []
        # id(LstmParams) -> "encoder" | "decoder", refreshed whenever a
        # function receives a ParamSet, so LSTM spans can name their role
        self._roles = {}
        self._probes = {
            "plant.simulate_scenario": lambda a, k, out: out.records.shape[0],
            "dataio.make_windows": lambda a, k, out: len(out),
            "dataio.load_matrix": lambda a, k, out: out.shape[0],
            "recurrent.lstm_forward_batch": self._forward_info,
            "recurrent.lstm_backward": self._backward_info,
            "recurrent.clip_global_norm":
                lambda a, k, out: bool(out[1] > a[1]),
            "model.loss_and_grads": lambda a, k, out: len(a[0]),
            "model.predict": lambda a, k, out: _n(a[1]),
            "model.TrainedModel.predict":
                lambda a, k, out: (_n(a[1]), int(np.count_nonzero(out))),
            "cli.main": lambda a, k, out: out,
        }

    # ------------------------------------------------------------ wrapping

    def install(self):
        namespaces = [m for name, m in sorted(sys.modules.items())
                      if name == "fddkit" or name.startswith("fddkit.")]
        for layer in LAYERS:
            module = importlib.import_module(f"fddkit.{layer}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or \
                        getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(f"{layer}.{attr}", obj)
                    for ns in namespaces:
                        for key, val in list(vars(ns).items()):
                            if val is obj:
                                self._patch(ns, key, wrapped)
                elif inspect.isclass(obj):
                    self._wrap_methods(f"{layer}.{attr}", obj)

    def _wrap_methods(self, prefix, cls):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if inspect.isfunction(obj):
                self._patch(cls, attr, self._wrap(f"{prefix}.{attr}", obj))
            elif isinstance(obj, classmethod):
                self._patch(cls, attr, classmethod(
                    self._wrap(f"{prefix}.{attr}", obj.__func__)))

    def _patch(self, owner, attr, new):
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self):
        for owner, attr, old in reversed(self._patched):
            setattr(owner, attr, old)
        self._patched.clear()

    def _wrap(self, name, fn):
        probe = self._probes.get(name)
        spans, stack = self.spans, self._open
        sig_params = inspect.signature(fn).parameters
        takes_params = "params" in sig_params

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if takes_params:
                self._note_roles(args, kwargs, sig_params)
            rec = [name, stack[-1] if stack else -1, self.op, 0, 0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[3] = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[4] = time.perf_counter_ns()
                stack.pop()
            if probe is not None:
                rec[5] = probe(args, kwargs, out)
            return out
        return wrapper

    def _note_roles(self, args, kwargs, sig_params):
        ps = kwargs.get("params")
        if ps is None:
            pos = list(sig_params).index("params")
            ps = args[pos] if pos < len(args) else None
        layers = getattr(ps, "layers", None)
        if layers is not None:
            for k, layer in enumerate(layers):
                self._roles[id(layer)] = ("encoder" if k < ps.n_encoder
                                          else "decoder")

    def _forward_info(self, args, kwargs, out):
        x = args[0]
        return (self._roles.get(id(args[1]), "encoder"),
                int(x.shape[0]) * int(x.shape[1]))

    def _backward_info(self, args, kwargs, out):
        return self._roles.get(id(args[0].params), "encoder")

    # ------------------------------------------------------------- output

    def write(self, path):
        with open(path, "w") as fh:
            for sid, (name, parent, op, start, end, info) in \
                    enumerate(self.spans):
                fh.write(json.dumps(
                    {"id": sid, "parent": parent, "op": op, "name": name,
                     "start_ns": start, "end_ns": end, "info": info}))
                fh.write("\n")


def layer_metrics(spans, n_ops):
    """Per-operation layer figures from the spans of one traced pass.

    ``*_s`` figures are seconds per operation: the wall time of the
    outermost spans of the named functions, or, for the LSTM forward
    pass, ``plant.simulate_s`` and ``model.loss_and_grads_s``, self time
    (duration minus the time covered by child spans). Counts are per
    operation; shares and rates are ratios over the whole pass.
    """
    names = [s[0] for s in spans]
    by_name = {}
    for i, n in enumerate(names):
        by_name.setdefault(n, []).append(i)
    dur = [(s[4] - s[3]) * 1e-9 for s in spans]
    child = [0.0] * len(spans)
    for sid, s in enumerate(spans):
        if s[1] >= 0:
            child[s[1]] += dur[sid]

    def ids(*wanted):
        return sorted(i for n in wanted for i in by_name.get(n, ()))

    def outermost(*wanted):
        """Spans of the wanted names with no ancestor of those names."""
        out = []
        for i in ids(*wanted):
            p = spans[i][1]
            while p >= 0 and names[p] not in wanted:
                p = spans[p][1]
            if p < 0:
                out.append(i)
        return out

    def total(*wanted):
        return sum(dur[i] for i in outermost(*wanted))

    def self_time(idx):
        return sum(dur[i] - child[i] for i in idx)

    def info(name):
        return [spans[i][5] for i in ids(name)]

    def per(v):
        return v / n_ops

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    def share(part, whole):
        return part / whole if whole else 0.0

    fwd = ids("recurrent.lstm_forward_batch")
    bwd = ids("recurrent.lstm_backward")
    sim_s = total("plant.simulate_scenario")
    samples = sum(info("plant.simulate_scenario"))
    train_s = total("model.train")
    passes = sum(info("model.loss_and_grads"))
    predict_s = total("model.predict")
    predicted = sum(info("model.predict"))
    clipped = info("recurrent.clip_global_norm")
    cli_codes = info("cli.main")

    # Routed inference: the first TrainedModel.predict under a route span
    # is level 1 on every window, the second is level 2 on the routed ones.
    seen = routed = relabelled = 0
    by_parent = {}
    for i in ids("model.TrainedModel.predict"):
        p = spans[i][1]
        while p >= 0 and names[p] not in ROUTE:
            p = spans[p][1]
        if p >= 0:
            by_parent.setdefault(p, []).append(spans[i][5])
    for calls in by_parent.values():
        seen += calls[0][0]
        if len(calls) > 1:
            routed += calls[1][0]
            relabelled += calls[1][1]

    return {
        "plant.simulate_s": per(self_time(ids("plant.simulate_scenario"))),
        "plant.samples": per(samples),
        "plant.samples_per_s": rate(samples, sim_s),
        "prbs.waveform_s": per(total("prbs.prbs_waveform")),
        "prbs.waveform_calls": per(len(ids("prbs.prbs_waveform"))),
        "dataio.windows_s": per(total("dataio.make_windows")),
        "dataio.windows_built": per(sum(info("dataio.make_windows"))),
        "dataio.scale_s": per(total(*SCALE)),
        "dataio.concat_s": per(total("dataio.concat_batches")),
        "dataio.load_matrix_s": per(total("dataio.load_matrix")),
        "dataio.rows_parsed": per(sum(info("dataio.load_matrix"))),
        "recurrent.encoder.forward_s": per(self_time(
            [i for i in fwd if spans[i][5][0] == "encoder"])),
        "recurrent.decoder.forward_s": per(self_time(
            [i for i in fwd if spans[i][5][0] == "decoder"])),
        "recurrent.forward_calls": per(len(fwd)),
        "recurrent.forward_window_steps": per(
            sum(spans[i][5][1] for i in fwd)),
        "recurrent.sigmoid_s": per(total("recurrent.sigmoid")),
        "recurrent.sigmoid_calls": per(len(ids("recurrent.sigmoid"))),
        "recurrent.encoder.backward_s": per(sum(
            dur[i] for i in bwd if spans[i][5] == "encoder")),
        "recurrent.decoder.backward_s": per(sum(
            dur[i] for i in bwd if spans[i][5] == "decoder")),
        "recurrent.backward_calls": per(len(bwd)),
        "recurrent.adam_s": per(total("recurrent.adam_step")),
        "recurrent.adam_steps": per(len(ids("recurrent.adam_step"))),
        "recurrent.clip_s": per(total("recurrent.clip_global_norm")),
        "recurrent.clip_share": share(sum(clipped), len(clipped)),
        "model.fits": per(len(ids("model.train"))),
        "model.train_s": per(train_s),
        "model.loss_and_grads_s": per(self_time(ids("model.loss_and_grads"))),
        "model.train_window_passes": per(passes),
        "model.train_window_passes_per_s": rate(passes, train_s),
        "model.predict_s": per(predict_s),
        "model.predict_windows": per(predicted),
        "model.predict_windows_per_s": rate(predicted, predict_s),
        "hierarchy.route_s": per(total(*ROUTE)),
        "hierarchy.routed_share": share(routed, seen),
        "hierarchy.relabelled_share": share(relabelled, routed),
        "pipeline.scenario_batch_s": per(total("pipeline.scenario_batch")),
        "pipeline.fit_flat_s": per(total("pipeline.fit_flat")),
        "pipeline.fit_hierarchical_s": per(total("pipeline.fit_hierarchical")),
        "pipeline.excitation_gain_s": per(total("pipeline.excitation_gain")),
        "pipeline.evaluate_s": per(total(*EVALUATE)),
        "cli.ingest_s": per(total("cli.cmd_ingest")),
        "cli.train_s": per(total("cli.cmd_train")),
        "cli.evaluate_s": per(total("cli.cmd_evaluate")),
        "cli.calls": per(len(cli_codes)),
        "cli.failed_calls": per(sum(1 for c in cli_codes if c != 0)),
        "metrics.report_s": per(total(
            *[n for n in by_name if n.startswith("metrics.")])),
    }
