import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from adlrec.cli import main
from adlrec.features import feature_matrix
from adlrec.models import load_model
from adlrec.records import load_corpus
from adlrec.taxonomy import default_category_table

from helpers import redigest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture()
def synth_dir(tmp_path):
    out = tmp_path / "corpus"
    code = main(
        [
            "synth",
            "--participants", "3",
            "--segments", "14",
            "--frames", "6",
            "--seed", "12",
            "--out", str(out),
        ]
    )
    assert code == 0
    return out


def test_synth_outputs_and_run_manifest(synth_dir):
    for name in ("records.jsonl", "truth_records.jsonl", "manifest.csv", "genspec.json"):
        assert (synth_dir / name).exists()
    manifests = list(synth_dir.glob("run_manifest*.json"))
    assert len(manifests) == 1
    doc = json.loads(manifests[0].read_text())
    assert doc["command"] == "synth"
    assert doc["seed"] == 12
    assert set(doc["outputs"]) == {
        "records.jsonl", "truth_records.jsonl", "manifest.csv", "genspec.json"
    }
    assert doc["tool_version"]


def test_synth_same_seed_identical_digests(tmp_path):
    args = ["synth", "--participants", "2", "--segments", "7", "--frames", "4", "--seed", "5"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    for name in ("records.jsonl", "manifest.csv", "genspec.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_synth_malformed_spec_fails(tmp_path, capsys):
    bad = tmp_path / "spec.json"
    bad.write_text("{not valid json")
    code = main(["synth", "--spec", str(bad), "--out", str(tmp_path / "out")])
    assert code != 0
    assert "error:" in capsys.readouterr().err


def test_ingest_validate(synth_dir, tmp_path, capsys):
    code = main(
        [
            "ingest-validate",
            "--records", str(synth_dir / "records.jsonl"),
            "--manifest", str(synth_dir / "manifest.csv"),
        ]
    )
    assert code == 0
    assert "rejected records: 0" in capsys.readouterr().out

    broken = tmp_path / "broken.jsonl"
    broken.write_text(
        (synth_dir / "records.jsonl").read_text() + '{"participant_id": 3}\n'
    )
    code = main(["ingest-validate", "--records", str(broken), "--manifest", str(synth_dir / "manifest.csv")])
    assert code == 1
    captured = capsys.readouterr()
    assert "rejected records: 1" in captured.out
    assert "rejected record" in captured.err


def feature_header(path: Path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# adlrec-features")
    return lines[0], lines[1].split(","), lines[2:]


def test_featurize_column_counts(synth_dir, tmp_path):
    base = [
        "featurize",
        "--records", str(synth_dir / "records.jsonl"),
        "--manifest", str(synth_dir / "manifest.csv"),
    ]
    out1 = tmp_path / "binact"
    assert main(base + ["--representation", "binary", "--active", "--out", str(out1)]) == 0
    meta, header, rows = feature_header(out1 / "features.csv")
    assert len(header) == 4 + 58
    assert "representation=binary" in meta and "active=true" in meta
    table = default_category_table()
    assert f"taxonomy={table.content_hash}" in meta
    assert len(rows) == 3 * 14

    out2 = tmp_path / "bothact"
    assert main(base + ["--representation", "both", "--active", "--out", str(out2)]) == 0
    _, header2, _ = feature_header(out2 / "features.csv")
    assert len(header2) == 4 + 116
    assert header2[4].startswith("counts_")
    assert header2[4 + 58].startswith("binary_")


def test_featurize_requires_manifest_in_training_mode(synth_dir, tmp_path, capsys):
    code = main(
        [
            "featurize",
            "--records", str(synth_dir / "records.jsonl"),
            "--out", str(tmp_path / "x"),
        ]
    )
    assert code == 1
    assert "manifest" in capsys.readouterr().err


def test_featurize_inference_mode(synth_dir, tmp_path):
    code = main(
        [
            "featurize",
            "--records", str(synth_dir / "records.jsonl"),
            "--inference",
            "--out", str(tmp_path / "inf"),
        ]
    )
    assert code == 0
    _, _, rows = feature_header(tmp_path / "inf" / "features.csv")
    assert all(row.split(",")[3] == "" for row in rows)


def test_train_then_evaluate_saved_model(synth_dir, tmp_path):
    train_out = tmp_path / "model"
    code = main(
        [
            "train",
            "--records", str(synth_dir / "records.jsonl"),
            "--manifest", str(synth_dir / "manifest.csv"),
            "--representation", "binary",
            "--active",
            "--model", "logreg",
            "--seed", "3",
            "--out", str(train_out),
        ]
    )
    assert code == 0
    model_file = train_out / "model.json"
    eval_out = tmp_path / "eval"
    code = main(
        [
            "evaluate",
            "--records", str(synth_dir / "records.jsonl"),
            "--manifest", str(synth_dir / "manifest.csv"),
            "--model", str(model_file),
            "--out", str(eval_out),
        ]
    )
    assert code == 0

    # predictions must match an in-process run of the same persisted model
    model = load_model(model_file.read_text())
    table = default_category_table()
    result, _ = load_corpus(
        (synth_dir / "records.jsonl").read_text(),
        (synth_dir / "manifest.csv").read_text(),
    )
    X, keys = feature_matrix(result.segments, table, model.feature_config)
    expected = model.predict_labels(X)
    with open(eval_out / "predictions.csv") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == len(keys)
    by_key = {
        (r["participant_id"], r["video_id"], int(r["segment_index"])): r["predicted_adl"]
        for r in rows
    }
    from adlrec.taxonomy import ADL_NAMES

    for key, pred in zip(keys, expected):
        assert by_key[(key.participant_id, key.video_id, key.segment_index)] == ADL_NAMES[pred]

    report = json.loads((eval_out / "report.json").read_text())
    assert report["mode"] == "fixed-model"
    assert 0.0 <= report["weighted_f1"] <= 1.0


def test_evaluate_loso_clean_corpus(tmp_path, capsys):
    corpus = tmp_path / "c"
    assert main(["synth", "--participants", "4", "--segments", "14", "--frames", "8",
                 "--seed", "2", "--out", str(corpus)]) == 0
    out = tmp_path / "eval"
    code = main(
        [
            "evaluate",
            "--records", str(corpus / "records.jsonl"),
            "--manifest", str(corpus / "manifest.csv"),
            "--representation", "binary",
            "--active",
            "--model", "logreg",
            "--seed", "2",
            "--out", str(out),
        ]
    )
    assert code == 0
    doc = json.loads((out / "report.json").read_text())
    assert doc["percent_above_half"] == 100.0
    assert len(doc["folds"]) == 4
    assert doc["provenance"]["train_config"]["kind"] == "logreg"


def test_ablate_single_model_grid(synth_dir, tmp_path, capsys):
    out = tmp_path / "grid"
    code = main(
        [
            "ablate",
            "--records", str(synth_dir / "records.jsonl"),
            "--manifest", str(synth_dir / "manifest.csv"),
            "--models", "logreg",
            "--seed", "4",
            "--out", str(out),
        ]
    )
    assert code == 0
    rows = (out / "grid.csv").read_text().strip().split("\n")
    assert len(rows) == 1 + 6
    assert (out / "ablation.json").exists()
    rendered = capsys.readouterr().out
    assert "binary" in rendered and "logreg" in rendered


def test_report_renders_both_kinds(synth_dir, tmp_path, capsys):
    out = tmp_path / "e"
    main(
        [
            "evaluate",
            "--records", str(synth_dir / "records.jsonl"),
            "--manifest", str(synth_dir / "manifest.csv"),
            "--model", "logreg",
            "--seed", "1",
            "--out", str(out),
        ]
    )
    capsys.readouterr()
    assert main(["report", "--in", str(out / "report.json")]) == 0
    text = capsys.readouterr().out
    assert "mean weighted F1" in text
    assert "confusion" in text
    assert "converged folds: 3/3" in text
    doc = json.loads((out / "report.json").read_text())
    doc["folds"][1].update(stopping_reason="max-iterations", iterations=1000)
    (out / "unconverged.json").write_text(json.dumps(doc))
    assert main(["report", "--in", str(out / "unconverged.json")]) == 0
    text = capsys.readouterr().out
    assert "converged folds: 2/3" in text
    pid = doc["folds"][1]["participant_id"]
    assert f"{pid}: F1 " in text
    assert "not converged: max-iterations after 1000 iterations" in text
    assert text.count("not converged") == 1

    grid_out = tmp_path / "g"
    main(
        [
            "ablate",
            "--records", str(synth_dir / "records.jsonl"),
            "--manifest", str(synth_dir / "manifest.csv"),
            "--models", "logreg",
            "--seed", "1",
            "--out", str(grid_out),
        ]
    )
    capsys.readouterr()
    assert main(["report", "--in", str(grid_out / "grid.csv")]) == 0
    assert "representation" in capsys.readouterr().out


def test_unknown_model_kind_fails(synth_dir, tmp_path, capsys):
    code = main(
        [
            "evaluate",
            "--records", str(synth_dir / "records.jsonl"),
            "--manifest", str(synth_dir / "manifest.csv"),
            "--model", "svm",
            "--out", str(tmp_path / "x"),
        ]
    )
    assert code == 1
    assert "unknown model kind" in capsys.readouterr().err


def test_evaluate_malformed_model_file_fails_legibly(synth_dir, tmp_path):
    records = ["--records", str(synth_dir / "records.jsonl"),
               "--manifest", str(synth_dir / "manifest.csv")]
    assert main(["train", *records, "--model", "rf", "--out", str(tmp_path / "m")]) == 0
    good = json.loads((tmp_path / "m" / "model.json").read_text())

    def tree_edit(field, value):
        def edit(doc):
            doc["parameters"]["trees"][0][field] = value
        return edit

    def drop_threshold(doc):
        del doc["parameters"]["trees"][3]["threshold"]

    def drop_parameters(doc):
        del doc["parameters"]

    edits = [
        drop_parameters,
        drop_threshold,
        tree_edit("left", [0] * len(good["parameters"]["trees"][0]["left"])),
        tree_edit("feature", good["parameters"]["trees"][0]["feature"][:-1]),
        tree_edit("feature", [2**70] * len(good["parameters"]["trees"][0]["feature"])),
        tree_edit("value", [[0.5]] * len(good["parameters"]["trees"][0]["value"])),
    ]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src") + os.pathsep + os.environ.get("PYTHONPATH", ""))
    for n, edit in enumerate(edits):
        doc = json.loads(json.dumps(good))
        edit(doc)
        bad = tmp_path / f"bad{n}.json"
        bad.write_text(redigest(doc))
        proc = subprocess.run(
            [sys.executable, "-m", "adlrec", "evaluate", *records, "--model", str(bad),
             "--out", str(tmp_path / f"e{n}")],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 1, (edit, proc.stderr)
        assert proc.stderr.startswith("error: malformed model document"), (edit, proc.stderr)
        assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "name, content, reason",
    [
        ("report.json", "{bad", "JSONDecodeError"),
        ("report.json", '{"x":1}', "KeyError: 'weighted_f1'"),
        ("report.json", "[1,2]", "TypeError"),
        ("grid.csv", "representation,active_objects\nboth,yes\n", "ValueError"),
    ],
)
def test_report_on_malformed_input_fails_legibly(tmp_path, name, content, reason):
    path = tmp_path / name
    path.write_text(content)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src") + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-m", "adlrec", "report", "--in", str(path)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith(f"error: {path} is not a report.json or grid.csv"), proc.stderr
    assert reason in proc.stderr
    assert "Traceback" not in proc.stderr


def test_duplicate_frame_index_drops_only_its_segment(tmp_path):
    corpus = tmp_path / "c"
    assert main(["synth", "--participants", "2", "--segments", "3", "--frames", "2",
                 "--seed", "0", "--out", str(corpus)]) == 0
    records = corpus / "records.jsonl"
    lines = records.read_text().splitlines()
    records.write_text("\n".join(lines + lines[:1]) + "\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src") + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-m", "adlrec", "evaluate", "--records", str(records),
         "--manifest", str(corpus / "manifest.csv"), "--model", "logreg",
         "--out", str(tmp_path / "e")],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert f"records.jsonl:{len(lines) + 1}: rejected record: segment " in proc.stderr
    assert "segment dropped" in proc.stderr
    doc = json.loads((tmp_path / "e" / "report.json").read_text())
    assert len(doc["folds"]) == 2
    assert sum(sum(row) for fold in doc["folds"] for row in fold["confusion"]) == 5
