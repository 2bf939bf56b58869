"""Fault detection and diagnosis for closed-loop process data.

Recurrent window classifiers with a reconstruction objective, a
two-level diagnosis scheme for slow faults, band-limited probing-signal
design, and a small closed-loop plant surrogate to exercise it all.
"""

from .dataio import (Scaler, SplitSpec, WindowBatch, concat_batches,
                     load_labels, load_matrix, make_windows, save_labels,
                     save_matrix, split)
from .errors import (ConfigError, DesignError, DimensionError, FddError,
                     FormatError, NumericDivergenceError, NumericError,
                     SplitError, UndefinedMetricError)
from .hierarchy import HierarchicalModel, LabelMap
from .metrics import (ConfusionMatrix, EvalReport, average_fdr,
                      build_report, confusion, far, fdr, format_report,
                      load_report, save_report)
from .model import (ModelConfig, TrainedModel, load_model, sae_loss,
                    save_model, train, tune)
from .pipeline import (ExperimentSpec, default_excitation, fit,
                       fit_hierarchical, hierarchical_report,
                       infer_with_twins, scenario_batch, surrogate_benchmark)
from .plant import (FaultSpec, PlantConfig, default_fault_library,
                    default_plant, simulate_scenario)
from .prbs import (BandSpec, PrbsPlan, design_band, generate_mls,
                   load_plan, plan_from_band, prbs_spectrum,
                   prbs_waveform, save_plan, schedule_injection)

__version__ = "0.1.0"

__all__ = [
    "BandSpec", "ConfigError", "ConfusionMatrix", "DesignError",
    "DimensionError", "EvalReport", "ExperimentSpec", "FaultSpec",
    "FddError", "FormatError", "HierarchicalModel", "LabelMap",
    "ModelConfig", "NumericDivergenceError", "NumericError", "PlantConfig",
    "PrbsPlan", "Scaler", "SplitError", "SplitSpec", "TrainedModel",
    "UndefinedMetricError", "WindowBatch", "average_fdr", "build_report",
    "concat_batches", "confusion", "default_excitation",
    "default_fault_library", "default_plant", "design_band", "far", "fdr",
    "fit", "fit_hierarchical", "format_report",
    "generate_mls", "hierarchical_report", "infer_with_twins",
    "load_labels", "load_matrix", "load_model", "load_plan", "load_report",
    "make_windows", "plan_from_band", "prbs_spectrum",
    "prbs_waveform", "sae_loss", "save_labels", "save_matrix", "save_model",
    "save_plan", "save_report", "scenario_batch", "schedule_injection",
    "simulate_scenario", "split", "surrogate_benchmark", "train", "tune",
]
