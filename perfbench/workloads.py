"""The benchmark's workloads: which adlrec commands each one runs, on which
generated corpus, and how its outputs are checked.

Each workload is a plan of `adlrec` argument lists: set-up commands that
generate the inputs (and, for score-saved, train the model), then one
workload command whose wall time is measured. Inputs come only from the
workload seed; the workload command runs with the CLI's default training
seed, so the program receives nothing from the benchmark but its inputs.
"""

import csv
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

ABLATE_MODELS = "logreg,rf,gb,mlp"
ABLATE_CELLS = 6 * 4  # feature configs x model kinds


@dataclass(frozen=True)
class Corpus:
    preset: str
    participants: int
    segments: int  # per participant
    frames: int  # per segment

    def synth(self, out: Path, seed: int) -> list[str]:
        return [
            "synth",
            "--preset", self.preset,
            "--participants", str(self.participants),
            "--segments", str(self.segments),
            "--frames", str(self.frames),
            "--seed", str(seed),
            "--out", str(out),
        ]


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "ablate", "loso" or "score": selects the command and its checks
    corpus: Corpus  # what the workload command reads
    tiny: Corpus  # the same shape at smoke-check size
    train_corpus: Corpus | None = None  # score: what the saved model is fitted on
    tiny_train: Corpus | None = None


WORKLOADS = {
    w.name: w
    for w in (
        # The paper's deliverable: the 24-cell ablation grid at the criterion-7 shape.
        Workload(
            "ablate-grid",
            "ablate",
            Corpus("distractor", 3, 14, 6),
            Corpus("distractor", 2, 8, 2),
        ),
        # Paper-scale LOSO of one config: the repeated featurization, no trees.
        Workload(
            "loso-paper",
            "loso",
            Corpus("clean", 16, 50, 13),
            Corpus("clean", 2, 8, 2),
        ),
        # Predict-only scoring of a large corpus with a saved gradient-boosting model.
        Workload(
            "score-saved",
            "score",
            Corpus("clean", 4, 50, 60),
            Corpus("clean", 2, 8, 3),
            train_corpus=Corpus("clean", 4, 20, 13),
            tiny_train=Corpus("clean", 2, 8, 2),
        ),
    )
}


@dataclass(frozen=True)
class Plan:
    setup: list[list[str]]  # adlrec argument lists, run in order
    run: list[str]  # the measured workload command
    records: Path  # records.jsonl the workload command reads
    out: Path  # the workload command's output directory
    corpus: Corpus


def plan(workload: Workload, work: Path, seed: int, tiny: bool = False) -> Plan:
    corpus = workload.tiny if tiny else workload.corpus
    inputs = work / "inputs"
    out = work / "out"
    setup = [corpus.synth(inputs, seed)]
    data = ["--records", str(inputs / "records.jsonl"), "--manifest", str(inputs / "manifest.csv")]
    if workload.kind == "ablate":
        run = ["ablate", "--models", ABLATE_MODELS, *data, "--out", str(out)]
    elif workload.kind == "loso":
        run = ["evaluate", "--model", "logreg", "--representation", "both", "--active", *data,
               "--out", str(out)]
    else:
        train = workload.tiny_train if tiny else workload.train_corpus
        train_in = work / "train_inputs"
        model = work / "model"
        setup += [
            train.synth(train_in, seed + 1),
            ["train", "--model", "gb", "--records", str(train_in / "records.jsonl"),
             "--manifest", str(train_in / "manifest.csv"), "--out", str(model)],
        ]
        run = ["evaluate", "--model", str(model / "model.json"), *data, "--out", str(out)]
    return Plan(setup, run, inputs / "records.jsonl", out, corpus)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class CheckFailed(Exception):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _check_f1(values, what: str) -> None:
    for value in values:
        _require(0.0 <= float(value) <= 1.0, f"{what} F1 {value!r} outside [0, 1]")


def check_manifest(out: Path) -> None:
    """Every output named in run_manifest.json exists with the recorded digest."""
    manifest = json.loads((out / "run_manifest.json").read_text("utf-8"))
    outputs = manifest["outputs"]
    _require(isinstance(outputs, dict) and outputs, "run_manifest.json lists no outputs")
    for name, digest in outputs.items():
        _require(sha256_file(out / name) == digest, f"{name} does not match its manifest digest")


def _check_fold_report(report: dict, participants: int) -> None:
    _require(len(report["folds"]) == participants,
             f"{len(report['folds'])} folds for {participants} participants")
    _check_f1([report["mean_weighted_f1"]], "mean weighted")
    for fold in report["folds"]:
        _check_f1([fold["weighted_f1"]], "fold weighted")
        _check_f1(fold["per_class_f1"], "fold per-class")


def check_result(kind: str, out: Path, corpus: Corpus) -> tuple[float, Path]:
    """Check a workload command's outputs; return (quality, result file).

    Quality is the mean LOSO weighted F1 over all result cells, or the saved
    model's weighted F1 when scoring. Raises CheckFailed, or the error met
    while reading a malformed output.
    """
    check_manifest(out)
    if kind == "ablate":
        with open(out / "grid.csv", encoding="utf-8", newline="") as stream:
            rows = list(csv.DictReader(stream))
        _require(len(rows) == ABLATE_CELLS, f"grid.csv has {len(rows)} rows, expected {ABLATE_CELLS}")
        for row in rows:
            _require(int(row["n_folds"]) == corpus.participants,
                     f"grid.csv n_folds {row['n_folds']} for {corpus.participants} participants")
            _check_f1([row["mean_weighted_f1"]], "grid mean weighted")
        for cell in json.loads((out / "ablation.json").read_text("utf-8")):
            _check_fold_report(cell["report"], corpus.participants)
        return sum(float(r["mean_weighted_f1"]) for r in rows) / len(rows), out / "grid.csv"
    report = json.loads((out / "report.json").read_text("utf-8"))
    if kind == "loso":
        _check_fold_report(report, corpus.participants)
        return float(report["mean_weighted_f1"]), out / "report.json"
    _check_f1([report["weighted_f1"]], "weighted")
    _check_f1(report["per_class_f1"], "per-class")
    with open(out / "predictions.csv", encoding="utf-8", newline="") as stream:
        scored = sum(1 for _ in csv.DictReader(stream))
    segments = corpus.participants * corpus.segments
    _require(scored == segments, f"predictions.csv has {scored} rows for {segments} segments")
    return float(report["weighted_f1"]), out / "report.json"


# What reading a broken output can raise besides CheckFailed.
OUTPUT_ERRORS = (CheckFailed, OSError, ValueError, KeyError, TypeError, csv.Error)
