"""Train a window classifier on simulated plant records.

Five operating classes, one monitored run each. The model compresses
each window through a recurrent encoder, reconstructs it, and labels
the final-timestep latent. Takes roughly half a minute.
"""

from fddkit.metrics import format_report
from fddkit.model import train
from fddkit.pipeline import (ExperimentSpec, classifier_config,
                             evaluate_classifier, scenario_batch)

spec = ExperimentSpec(classes=(0, 1, 2, 5, 10), incipient=(),
                      n_series=1, horizon=300, epochs=10)

train_b = scenario_batch(seed=1, split="train", spec=spec)
val_b = scenario_batch(seed=1, split="val", spec=spec)
test_b = scenario_batch(seed=1, split="test", spec=spec)
print(f"windows: {len(train_b)} train / {len(val_b)} val / "
      f"{len(test_b)} test")

config = classifier_config(n_classes=11, seed=1, spec=spec,
                           n_features=train_b.n_features,
                           horizon=train_b.horizon)
model = train(train_b, val_b, config)

for row in model.history[::3]:
    print(f"epoch {row['epoch']:2d}  loss {row['loss']:.4f}  "
          f"val acc {row['val_accuracy']:.3f}")

report = evaluate_classifier(model, test_b,
                             metadata={"seed": 1, "demo": "flat"})
print(format_report(report), end="")
