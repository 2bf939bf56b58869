"""Drive the command-line surface end to end in a temporary directory.

simulate writes plain-text records, ingest windows and standardizes
them into a reusable archive, train fits a classifier on the archive,
evaluate writes the report files. Every stage is a config plus an
output directory, so reruns are reproducible byte for byte. The
directory is removed at the end.
"""

import json
import tempfile
from pathlib import Path

from fddkit.cli import main


def walkthrough(root):
    print(f"working under {root}")

    def cfg(name, payload):
        path = root / name
        path.write_text(json.dumps(payload, indent=2))
        return str(path)

    rc = main(["simulate", "--config",
               cfg("sim.json", {"seed": 9, "horizon": 600,
                                "fault": {"class": 10, "onset": 250}}),
               "--out", str(root / "run")])
    assert rc == 0

    rc = main(["ingest", "--config",
               cfg("ingest.json", {"seed": 9,
                                   "data": str(root / "run" / "records.txt"),
                                   "labels": str(root / "run" / "labels.txt"),
                                   "window": 20,
                                   "split": {"train": 0.6, "val": 0.2,
                                             "test": 0.2}}),
               "--out", str(root / "archive")])
    assert rc == 0

    rc = main(["train", "--config",
               cfg("train.json", {"seed": 9,
                                  "archive": str(root / "archive"),
                                  "n_classes": 11,
                                  "model": {"epochs": 25}}),
               "--out", str(root / "model"), "--mode", "flat"])
    assert rc == 0

    rc = main(["evaluate", "--config",
               cfg("eval.json", {"seed": 9,
                                 "archive": str(root / "archive"),
                                 "model": str(root / "model")}),
               "--out", str(root / "report")])
    assert rc == 0

    print()
    print((root / "report" / "report.txt").read_text(), end="")
    print()
    print("files written:")
    for p in sorted(root.rglob("*")):
        if p.is_file():
            print(f"  {p.relative_to(root)}")


with tempfile.TemporaryDirectory(prefix="fddkit-demo-") as tmp:
    walkthrough(Path(tmp))
