import argparse
import contextlib
import csv
import gc
import hashlib
import io
import itertools
import json
import math
import os
import shutil
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adlrec import cli, models
from adlrec.cli import main
from adlrec.documents import from_document, to_document
from adlrec.evaluation import GRID_HEADER, AblationCell, EvaluationReport, ScoredReport
from adlrec.features import FeatureConfig, feature_matrix
from adlrec.models import boosting
from adlrec.models.store import load_model, save_model
from adlrec.records import RecordError, SegmentKey, load_corpus
from adlrec.synthgen import NoiseSpec, clean_genspec, generate, genspec_to_json
from adlrec.taxonomy import ADL_NAMES, default_category_table

from helpers import PRIOR_KIND, redigest

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


def test_synth_refuses_label_confusion_over_a_one_category_table(tmp_path, capsys):
    # a confused label is redrawn from the other categories, and there are none
    good = clean_genspec(participants=3, segments_per_participant=7, frames_per_segment=2, seed=0)
    spec = replace(good, noise=NoiseSpec(label_confusion_rate=0.5),
                   adl_profiles=tuple(replace(p, core=("other",), context=()) for p in good.adl_profiles))
    (tmp_path / "spec.json").write_text(genspec_to_json(spec))
    (tmp_path / "tax.json").write_text(json.dumps({"fallback": "other", "categories": {"other": ["other"]}}))
    code = main(["synth", "--spec", str(tmp_path / "spec.json"), "--taxonomy", str(tmp_path / "tax.json"),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: label_confusion_rate > 0 needs a category table of at least 2 categories"
    ]
    assert not (tmp_path / "out").exists()


def test_synth_refuses_a_negative_segment_count(tmp_path, capsys):
    assert main(["synth", "--segments", "-1", "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: total must be >= 0\n"
    assert not (tmp_path / "out").exists()


def test_a_negative_manifest_segment_index_is_refused(synth_dir, tmp_path, capsys):
    # no record can have this key, so it was once a manifest row without frames
    manifest = tmp_path / "manifest.csv"
    manifest.write_text((synth_dir / "manifest.csv").read_text() + "p01,v01,-1,Self-Feeding\n")
    assert main(["ingest-validate", "--records", str(synth_dir / "records.jsonl"),
                 "--manifest", str(manifest)]) == 1
    assert capsys.readouterr().err == (
        "error: manifest line 44: segment_index '-1' is not a nonnegative integer\n"
    )


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
    # it draws no randomness and writes no manifest, so it takes no seed
    with pytest.raises(SystemExit):
        main(["ingest-validate", "--records", str(broken), "--seed", "0"])
    # featurize draws no randomness either: its manifest records no seed
    records = str(synth_dir / "records.jsonl")
    with pytest.raises(SystemExit):
        main(["featurize", "--records", records, "--seed", "0", "--out", str(tmp_path / "f")])
    assert main(["featurize", "--records", records, "--out", str(tmp_path / "f")]) == 0
    assert json.loads((tmp_path / "f" / "run_manifest.json").read_text())["seed"] is None


def test_ingest_validate_rejects_lines_that_are_not_utf8(synth_dir, tmp_path, capsys):
    lines = (synth_dir / "records.jsonl").read_bytes().splitlines(keepends=True)
    broken = tmp_path / "broken.jsonl"
    broken.write_bytes(b"\xff\xfe" + lines[0] + b"".join(lines[1:3]) + b'{"x": "\xc3"}\n' + b"".join(lines[3:]))
    manifest = str(synth_dir / "manifest.csv")
    code = main(["ingest-validate", "--records", str(broken), "--manifest", manifest])
    assert code == 1
    captured = capsys.readouterr()
    assert f"valid records: {len(lines) - 1}  rejected records: 2" in captured.out
    assert captured.err.splitlines() == [
        f"{broken}:1: rejected record: line is not valid UTF-8",
        f"{broken}:4: rejected record: line is not valid UTF-8",
    ]

    bad_manifest = tmp_path / "manifest.csv"
    bad_manifest.write_bytes((synth_dir / "manifest.csv").read_bytes() + b"p\xff,v,0,x\n")
    code = main(["ingest-validate", "--records", str(synth_dir / "records.jsonl"),
                 "--manifest", str(bad_manifest)])
    assert code == 1
    assert capsys.readouterr().err == f"error: manifest {bad_manifest} is not valid UTF-8\n"


def test_ingest_validate_rejects_an_overlong_manifest_field(synth_dir, tmp_path, capsys):
    lines = (synth_dir / "manifest.csv").read_text().splitlines(keepends=True)
    bad_manifest = tmp_path / "manifest.csv"
    bad_manifest.write_text("".join(lines[:3]) + "p" * 200_000 + ",v01,0,Self-Feeding\n")
    code = main(["ingest-validate", "--records", str(synth_dir / "records.jsonl"),
                 "--manifest", str(bad_manifest)])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: manifest line 4: field larger than field limit (131072)\n"
    )


def test_a_wrong_manifest_header_is_echoed_at_bounded_length(synth_dir, tmp_path, capsys):
    records = synth_dir / "records.jsonl"
    wide, many = tmp_path / "wide.csv", tmp_path / "many.csv"
    wide.write_text("participant_id,video_id,segment_index," + "x" * 100_000 + "\n")
    many.write_text("a," * 10_000 + "\n")
    # a frame record where the manifest belongs, as a swapped pair of flags gives
    for manifest in (records, wide, many):
        assert main(["train", "--model", "lr", "--records", str(records),
                     "--manifest", str(manifest), "--out", str(tmp_path / "m")]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: manifest header must be "
                               "participant_id,video_id,segment_index,adl_label, got ["), line
        assert len(line) <= 300, line
    assert not (tmp_path / "m").exists()


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
    # each row's label cell is its manifest row's, Self-Feeding (ADL id 0) among them
    manifest = (synth_dir / "manifest.csv").read_text().splitlines()[1:]
    assert [",".join(row.split(",")[:4]) for row in rows] == manifest
    assert {line.rsplit(",", 1)[1] for line in manifest} == set(ADL_NAMES)

    out2 = tmp_path / "bothact"
    assert main(base + ["--representation", "both", "--active", "--out", str(out2)]) == 0
    _, header2, _ = feature_header(out2 / "features.csv")
    assert len(header2) == 4 + 116
    assert header2[4].startswith("counts_")
    assert header2[4 + 58].startswith("binary_")


def test_featurize_inference_mode(synth_dir, tmp_path):
    # without a manifest every segment is unlabeled
    code = main(
        [
            "featurize",
            "--records", str(synth_dir / "records.jsonl"),
            "--out", str(tmp_path / "inf"),
        ]
    )
    assert code == 0
    _, _, rows = feature_header(tmp_path / "inf" / "features.csv")
    assert len(rows) == 3 * 14
    assert all(row.split(",")[3] == "" for row in rows)
    with pytest.raises(SystemExit):
        main(["featurize", "--records", str(synth_dir / "records.jsonl"), "--inference",
              "--out", str(tmp_path / "flag")])


def test_fitting_and_scoring_commands_require_a_manifest(synth_dir, tmp_path, capsys):
    records = ["--records", str(synth_dir / "records.jsonl")]
    manifest = ["--manifest", str(synth_dir / "manifest.csv")]
    assert main(["train", *records, *manifest, "--model", "logreg", "--out", str(tmp_path / "m")]) == 0
    capsys.readouterr()
    for n, argv in enumerate([
        ["train", "--model", "logreg"],
        ["evaluate", "--model", "logreg"],
        ["evaluate", "--model", str(tmp_path / "m" / "model.json")],
        ["ablate", "--models", "logreg"],
    ]):
        out = tmp_path / f"out{n}"
        assert main([*argv, *records, "--out", str(out)]) == 1, argv
        assert capsys.readouterr().err.splitlines() == [f"error: {argv[0]} needs --manifest"], argv
        assert not out.exists(), argv


@pytest.mark.parametrize("command", ["featurize", "ingest-validate"])
def test_a_given_manifest_must_label_every_segment(synth_dir, tmp_path, capsys, command):
    rows = (synth_dir / "manifest.csv").read_text().splitlines(keepends=True)
    short = tmp_path / "short.csv"
    short.write_text("".join(rows[:-1]))
    participant, video, index, _ = rows[-1].strip().split(",")
    out = ["--out", str(tmp_path / "f")] if command == "featurize" else []
    argv = [command, "--records", str(synth_dir / "records.jsonl"), *out, "--manifest"]
    assert main([*argv, str(short)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert str(SegmentKey(participant, video, int(index))) in err[0]
    # `--manifest "$M"` with M unset must not quietly yield unlabeled output
    assert main([*argv, ""]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: --manifest names no file"]
    assert not (tmp_path / "f").exists()


def test_featurize_writes_its_features_despite_a_rejected_record(synth_dir, tmp_path, capsys):
    records = tmp_path / "records.jsonl"
    records.write_text((synth_dir / "records.jsonl").read_text() + '{"participant_id": 3}\n')
    out = tmp_path / "f"
    assert main(["featurize", "--records", str(records), "--manifest",
                 str(synth_dir / "manifest.csv"), "--out", str(out)]) == 1
    assert capsys.readouterr().err.endswith("rejected records: 1\n")
    _, _, rows = feature_header(out / "features.csv")
    assert len(rows) == 3 * 14
    assert json.loads((out / "run_manifest.json").read_text())["config"]["rejected_records"] == 1


def test_saved_model_under_another_taxonomy_is_refused(synth_dir, tmp_path, capsys):
    data = ["--records", str(synth_dir / "records.jsonl"),
            "--manifest", str(synth_dir / "manifest.csv")]
    assert main(["train", *data, "--model", "logreg", "--out", str(tmp_path / "m")]) == 0
    doc = json.loads((ROOT / "src" / "adlrec" / "data" / "categories.json").read_text())
    doc["categories"]["zz_extra"] = ["zz_extra_thing"]
    taxonomy = tmp_path / "tax.json"
    taxonomy.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["evaluate", *data, "--taxonomy", str(taxonomy), "--model",
                 str(tmp_path / "m" / "model.json"), "--out", str(tmp_path / "e")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: model was trained under a different taxonomy version"
    ]


def test_featurize_refuses_a_table_that_names_two_columns_alike(synth_dir, tmp_path, capsys):
    doc = json.loads((ROOT / "src" / "adlrec" / "data" / "categories.json").read_text())
    doc["categories"]["active_drinkware"] = []
    taxonomy = tmp_path / "tax.json"
    taxonomy.write_text(json.dumps(doc))
    out = tmp_path / "f"
    capsys.readouterr()
    assert main(["featurize", "--records", str(synth_dir / "records.jsonl"), "--taxonomy", str(taxonomy),
                 "--representation", "both", "--active", "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: category table gives two feature columns the name 'counts_active_drinkware'"
    ]
    assert not (out / "features.csv").exists()


@pytest.mark.parametrize("name, representation", [("adl_label", "counts"), ("participant_id", "binary"),
                                                  ("video_id", "counts"), ("segment_index", "binary")])
def test_featurize_refuses_a_category_named_like_a_manifest_column(synth_dir, tmp_path, capsys,
                                                                    name, representation):
    doc = json.loads((ROOT / "src" / "adlrec" / "data" / "categories.json").read_text())
    doc["categories"][name] = []
    taxonomy = tmp_path / "tax.json"
    taxonomy.write_text(json.dumps(doc))
    out = tmp_path / "f"
    capsys.readouterr()
    assert main(["featurize", "--records", str(synth_dir / "records.jsonl"), "--taxonomy", str(taxonomy),
                 "--representation", representation, "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: category table gives a feature column the manifest column name {name!r}"
    ]
    assert not (out / "features.csv").exists()


def test_ablate_with_no_models_fails(tmp_path, capsys):
    # the kinds are resolved before any input is read
    assert main(["ablate", "--records", str(tmp_path / "missing.jsonl"),
                 "--manifest", str(tmp_path / "missing.csv"), "--models", ",",
                 "--out", str(tmp_path / "a")]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: no models requested"]


@pytest.mark.parametrize("models, kind", [("lr,logreg", "logreg"), ("mlp, mlp", "mlp"),
                                          ("gb,rf,gradient_boosting", "gradient_boosting")])
def test_ablate_refuses_a_model_kind_named_twice(tmp_path, capsys, models, kind):
    out = tmp_path / "a"
    assert main(["ablate", "--records", str(tmp_path / "missing.jsonl"),
                 "--manifest", str(tmp_path / "missing.csv"), "--models", models,
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: --models names model kind {kind!r} more than once"
    ]
    assert not out.exists()


def test_model_document_holding_a_nan_is_refused(synth_dir, tmp_path, capsys):
    data = ["--records", str(synth_dir / "records.jsonl"),
            "--manifest", str(synth_dir / "manifest.csv")]
    assert main(["train", *data, "--model", "gb", "--out", str(tmp_path / "m")]) == 0
    doc = json.loads((tmp_path / "m" / "model.json").read_text())
    doc["parameters"]["learning_rate"] = math.nan
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps(doc))  # json writes NaN, which save_model never does
    assert "NaN" in bad.read_text()
    capsys.readouterr()
    assert main(["evaluate", *data, "--model", str(bad), "--out", str(tmp_path / "e")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: corrupted model document: number is NaN or infinite"
    ]


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
    # scoring draws no random number, so the manifest records no seed
    assert json.loads((eval_out / "run_manifest.json").read_text())["seed"] is None


def test_empty_corpus_fails_legibly_where_a_model_is_fit_or_scored(synth_dir, tmp_path, capsys):
    data = ["--records", str(synth_dir / "records.jsonl"),
            "--manifest", str(synth_dir / "manifest.csv")]
    assert main(["train", *data, "--model", "gb", "--out", str(tmp_path / "m")]) == 0
    records = tmp_path / "records.jsonl"
    records.write_text("")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text((synth_dir / "manifest.csv").read_text().splitlines()[0] + "\n")
    empty = ["--records", str(records), "--manifest", str(manifest)]
    for n, argv in enumerate([
        ["train", *empty], ["evaluate", *empty, "--model", "logreg"],
        ["evaluate", *empty, "--model", str(tmp_path / "m" / "model.json")],
        ["ablate", *empty, "--models", "logreg"],
    ]):
        capsys.readouterr()
        out = tmp_path / f"o{n}"
        assert main([*argv, "--out", str(out)]) == 1, argv
        assert capsys.readouterr().err.splitlines() == [f"error: no segment loaded from {records}"]
        assert not out.exists()
    # featurizing and validating an empty corpus still succeed
    assert main(["featurize", *empty, "--out", str(tmp_path / "f")]) == 0
    lines = (tmp_path / "f" / "features.csv").read_text().splitlines()
    assert len(lines) == 2 and lines[1].startswith("participant_id,")
    capsys.readouterr()
    assert main(["ingest-validate", *empty]) == 0
    assert capsys.readouterr().out.startswith("segments: 0 ")


def test_saved_model_scoring_refuses_the_flags_its_model_answers(synth_dir, tmp_path, capsys):
    data = ["--records", str(synth_dir / "records.jsonl"),
            "--manifest", str(synth_dir / "manifest.csv")]
    assert main(["train", *data, "--model", "gb", "--representation", "both",
                 "--out", str(tmp_path / "m")]) == 0
    model = ["--model", str(tmp_path / "m" / "model.json")]
    for n, flags in enumerate([["--representation", "counts"], ["--no-active"], ["--active"],
                               ["--seed", "5"], ["--representation", "both", "--seed", "1729"]]):
        capsys.readouterr()
        out = tmp_path / f"e{n}"
        assert main(["evaluate", *data, *model, *flags, "--out", str(out)]) == 1, flags
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: a saved model fixes"), err
        assert all(flag in err[0] for flag in flags if flag.startswith("--")), err
        assert not out.exists()
    # LOSO still resolves the flags it is not given to binary, active and the default seed
    assert main(["evaluate", *data, "--model", "logreg", "--out", str(tmp_path / "l")]) == 0
    manifest = json.loads((tmp_path / "l" / "run_manifest.json").read_text())
    assert manifest["seed"] == cli.DEFAULT_SEED
    assert (manifest["config"]["representation"], manifest["config"]["use_active"]) == ("binary", True)


def test_every_command_lists_manifest_rows_without_frames(synth_dir, tmp_path, capsys):
    manifest = tmp_path / "manifest.csv"
    manifest.write_text((synth_dir / "manifest.csv").read_text() + "P99,V99,0,Self-Feeding\n")
    data = ["--records", str(synth_dir / "records.jsonl"), "--manifest", str(manifest)]
    line = f"manifest label without frames: {SegmentKey('P99', 'V99', 0)}"
    assert main(["train", *data, "--model", "logreg", "--out", str(tmp_path / "m")]) == 0
    assert capsys.readouterr().err.splitlines() == [line]
    for n, argv in enumerate([
        ["featurize"],
        ["evaluate", "--model", "logreg"],
        ["evaluate", "--model", str(tmp_path / "m" / "model.json")],
        ["ablate", "--models", "logreg"],
    ]):
        assert main([*argv, *data, "--out", str(tmp_path / f"o{n}")]) == 0, argv
        assert capsys.readouterr().err.splitlines() == [line], argv
    assert main(["ingest-validate", *data]) == 0
    captured = capsys.readouterr()
    assert captured.out == "segments: 42  valid records: 252  rejected records: 0\n"
    assert captured.err.splitlines() == [line]


def test_report_documents_rewrite_to_their_own_bytes(synth_dir, tmp_path):
    data = ["--records", str(synth_dir / "records.jsonl"),
            "--manifest", str(synth_dir / "manifest.csv")]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["evaluate", *data, "--model", "mlp", "--out", str(tmp_path / "l")]) == 0
        assert main(["train", *data, "--model", "gb", "--out", str(tmp_path / "m")]) == 0
        assert main(["evaluate", *data, "--model", str(tmp_path / "m" / "model.json"),
                     "--out", str(tmp_path / "s")]) == 0
        assert main(["ablate", *data, "--models", "logreg,rf", "--out", str(tmp_path / "a")]) == 0
    for field_type, path in [
        (EvaluationReport, tmp_path / "l" / "report.json"),
        (ScoredReport, tmp_path / "s" / "report.json"),
        (list[AblationCell], tmp_path / "a" / "ablation.json"),
    ]:
        text = path.read_text()
        value = from_document(field_type, json.loads(text))
        assert json.dumps(to_document(value), indent=2) + "\n" == text, path
    assert [(cell.representation, cell.use_active) for cell in value[::2]] == [
        (representation, active) for representation in ("counts", "binary", "both")
        for active in (False, True)
    ]
    assert [cell.model for cell in value[:2]] == ["logreg", "random_forest"]


# sha256 of what `adlrec evaluate --model model.json` writes when a gb model
# trained on one noisy distractor corpus scores another: any change to the
# scoring path, the report fields or their order moves these bytes.
SCORED_PINS = {
    "report.json": "5068e2a2b1fbcfd467abe40e3e036dd2192f2c1a1ad77bdd5716ff2b457e73c6",
    "predictions.csv": "0eba383b1c98f9405a3e8c439605e5a39fa419caea889a57bf86753904a2397a",
}
# as above with boosting.TOL at 0.0, where the gb fit builds all 100 stages:
# the bytes from before the deviance stop
FULL_FIT_SCORED_PINS = {
    "report.json": "5e9cafbd851581cfefeda8749114d4486c332971b7e53e732c8b75ab972a1e36",
    "predictions.csv": "0eba383b1c98f9405a3e8c439605e5a39fa419caea889a57bf86753904a2397a",
}


# sha256 of what `adlrec synth` writes for each preset at one small size and
# seed with every noise rate non-zero: any change to generation, the noise
# model, record serialization or the manifest moves these bytes.
SYNTH_PINS = {
    "clean": {
        "records.jsonl": "8d802acdcd9de92510e32b1943d0fbf041b64074add9cd49d5191e314e7ece7f",
        "truth_records.jsonl": "9e9d5adae3ad9baf5417dae6a66f66d7d771129412a9559815d603746ade8b21",
        "manifest.csv": "9090caa97160ded74c6d08e8f34da99cf265cf79c5416522a130d10289dd125f",
    },
    "distractor": {
        "records.jsonl": "418dc63805fb3329b9ff0a3bf484519e39ac17f7bc58471726906daa4f870feb",
        "truth_records.jsonl": "438094ee25bf984134958bfa6255042089fed6b9e915838e0e7073fdc49609d8",
        "manifest.csv": "9090caa97160ded74c6d08e8f34da99cf265cf79c5416522a130d10289dd125f",
    },
}


# {0} runs synth in this process; {0, 1} forks two workers for the three
# participants (2 + 1); {0, 1, 2, 3} asks for more workers than participants.
SYNTH_CPU_SETS = [{0}, {0, 1}, {0, 1, 2, 3}]


def _check_synth_pins(out: Path, pins: dict[str, str]) -> None:
    """Files and run manifest match the pins, and synth left no child process."""
    outputs = json.loads((out / "run_manifest.json").read_text())["outputs"]
    for name, digest in pins.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name
        assert outputs[name] == digest, name
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("cpus", SYNTH_CPU_SETS)
@pytest.mark.parametrize("preset", SYNTH_PINS)
def test_synth_bytes_are_pinned(tmp_path, monkeypatch, preset, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    out = tmp_path / preset
    assert main(["synth", "--preset", preset, "--participants", "3", "--segments", "14",
                 "--frames", "6", "--drop-rate", "0.1", "--spurious-rate", "0.2",
                 "--label-confusion-rate", "0.05", "--box-jitter", "2.5", "--seed", "12",
                 "--out", str(out)]) == 0
    _check_synth_pins(out, SYNTH_PINS[preset])


# the same at zero noise, which writes the one stream under both record
# names; recorded before generation skipped its noise pass.
ZERO_NOISE_SYNTH_PINS = {
    "clean": {
        "records.jsonl": "9e9d5adae3ad9baf5417dae6a66f66d7d771129412a9559815d603746ade8b21",
        "truth_records.jsonl": "9e9d5adae3ad9baf5417dae6a66f66d7d771129412a9559815d603746ade8b21",
        "manifest.csv": "9090caa97160ded74c6d08e8f34da99cf265cf79c5416522a130d10289dd125f",
    },
    "distractor": {
        "records.jsonl": "438094ee25bf984134958bfa6255042089fed6b9e915838e0e7073fdc49609d8",
        "truth_records.jsonl": "438094ee25bf984134958bfa6255042089fed6b9e915838e0e7073fdc49609d8",
        "manifest.csv": "9090caa97160ded74c6d08e8f34da99cf265cf79c5416522a130d10289dd125f",
    },
}


@pytest.mark.parametrize("cpus", SYNTH_CPU_SETS)
@pytest.mark.parametrize("preset", ZERO_NOISE_SYNTH_PINS)
def test_zero_noise_synth_bytes_are_pinned(tmp_path, monkeypatch, preset, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    out = tmp_path / preset
    assert main(["synth", "--preset", preset, "--participants", "3", "--segments", "14",
                 "--frames", "6", "--seed", "12", "--out", str(out)]) == 0
    _check_synth_pins(out, ZERO_NOISE_SYNTH_PINS[preset])


# sha256 of what `adlrec synth --spec` writes for a spec whose profiles the
# presets never produce: Self-Feeding is never hand-active, Functional
# Mobility has no context, Grooming's core always appears, and participant
# biases are at full strength. Any change to the per-object draw order moves
# these bytes, even one that keeps every preset's output.
SPEC_PINS = {
    "records.jsonl": "1fd96b8bfca253fdb6753336bfa9bb30b5720066b69ffa775aeb5260e3857143",
    "truth_records.jsonl": "7eafb75e51835406995ba8833a87eba4068c6112581cd69d7f68ee7d34effc28",
    "manifest.csv": "9090caa97160ded74c6d08e8f34da99cf265cf79c5416522a130d10289dd125f",
}


@pytest.mark.parametrize("cpus", SYNTH_CPU_SETS)
def test_synth_spec_bytes_are_pinned(tmp_path, monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    spec = clean_genspec(participants=3, segments_per_participant=14, frames_per_segment=6, seed=12,
                         noise=NoiseSpec(0.1, 0.2, 0.05, 2.5))
    profiles = list(spec.adl_profiles)
    profiles[0] = replace(profiles[0], active_prob=0.0)
    profiles[1] = replace(profiles[1], context=())
    profiles[2] = replace(profiles[2], core_prob=1.0)
    spec = replace(spec, participant_effect=1.0, adl_profiles=tuple(profiles))
    path = tmp_path / "spec.json"
    path.write_text(genspec_to_json(spec))
    out = tmp_path / "out"
    assert main(["synth", "--spec", str(path), "--out", str(out)]) == 0
    _check_synth_pins(out, SPEC_PINS)
    # the spec made the corpus, so the run used no preset
    config = json.loads((out / "run_manifest.json").read_text())["config"]
    assert config["spec"] == str(path) and config["preset"] is None


def test_synth_spec_refuses_the_preset_flags(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(genspec_to_json(clean_genspec(participants=2, segments_per_participant=7,
                                                  frames_per_segment=2, seed=0)))
    spec = ["synth", "--spec", str(path)]
    for n, flags in enumerate([
        ["--participants", "5", "--drop-rate", "0.5", "--seed", "99", "--preset", "distractor"],
        ["--preset", "clean"], ["--segments", "50"], ["--frames", "13"], ["--spurious-rate", "0"],
        ["--label-confusion-rate", "0.1"], ["--box-jitter", "2"], ["--seed", "1729"],
    ]):
        capsys.readouterr()
        out = tmp_path / f"o{n}"
        assert main([*spec, *flags, "--out", str(out)]) == 1, flags
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: a generator spec fixes"), err
        assert all(flag in err[0] for flag in flags if flag.startswith("--")), err
        assert not out.exists()
    # --taxonomy and --out stay allowed with --spec
    taxonomy = ROOT / "src" / "adlrec" / "data" / "categories.json"
    assert main([*spec, "--taxonomy", str(taxonomy), "--out", str(tmp_path / "ok")]) == 0
    # without --spec, flags not given resolve to the clean preset, no noise and the default seed
    out = tmp_path / "preset"
    assert main(["synth", "--participants", "2", "--segments", "7", "--frames", "2",
                 "--out", str(out)]) == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["seed"] == cli.DEFAULT_SEED and manifest["config"]["preset"] == "clean"
    assert (out / "records.jsonl").read_bytes() == (out / "truth_records.jsonl").read_bytes()


def _scored_digests(tmp_path) -> dict[str, str]:
    data = {}
    for name, seed in (("train", "12"), ("score", "13")):
        corpus = tmp_path / name
        assert main(["synth", "--preset", "distractor", "--participants", "3", "--segments", "14",
                     "--frames", "6", "--drop-rate", "0.1", "--spurious-rate", "0.2",
                     "--label-confusion-rate", "0.05", "--seed", seed, "--out", str(corpus)]) == 0
        data[name] = ["--records", str(corpus / "records.jsonl"),
                      "--manifest", str(corpus / "manifest.csv")]
    assert main(["train", *data["train"], "--representation", "both", "--model", "gb",
                 "--seed", "3", "--out", str(tmp_path / "m")]) == 0
    out = tmp_path / "e"
    assert main(["evaluate", "--model", str(tmp_path / "m" / "model.json"), *data["score"],
                 "--out", str(out)]) == 0
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in SCORED_PINS}


def test_saved_model_scoring_bytes_are_pinned(tmp_path, monkeypatch):
    assert _scored_digests(tmp_path / "stopped") == SCORED_PINS
    monkeypatch.setattr(boosting, "TOL", 0.0)
    assert _scored_digests(tmp_path / "full") == FULL_FIT_SCORED_PINS


def test_model_kind_is_never_read_as_a_file(synth_dir, tmp_path, monkeypatch, capsys):
    # a file named like a model kind must not turn LOSO into scoring that file
    monkeypatch.chdir(tmp_path)
    (tmp_path / "gb").write_text("not a model")
    (tmp_path / "svm").write_text("not a model either")
    data = ["--records", str(synth_dir / "records.jsonl"),
            "--manifest", str(synth_dir / "manifest.csv")]
    assert main(["evaluate", "--model", "gb", *data, "--out", "loso"]) == 0
    doc = json.loads((tmp_path / "loso" / "report.json").read_text())
    assert doc["provenance"]["train_config"]["kind"] == "gradient_boosting"
    assert len(doc["folds"]) == 3
    capsys.readouterr()
    # any other name is still read as a model path
    assert main(["evaluate", "--model", "svm", *data, "--out", "file"]) == 1
    assert capsys.readouterr().err.startswith("error: corrupted model document")


def test_a_fifth_kind_is_one_module_and_one_entry_in_kinds(synth_dir, tmp_path, monkeypatch, capsys):
    kinds = (*models.KINDS, PRIOR_KIND)
    monkeypatch.setattr(models, "KINDS", kinds)
    data = ["--records", str(synth_dir / "records.jsonl"),
            "--manifest", str(synth_dir / "manifest.csv")]
    assert main(["train", *data, "--model", "prior", "--out", str(tmp_path / "m")]) == 0
    text = (tmp_path / "m" / "model.json").read_text()
    assert json.loads(text)["kind"] == "prior"
    assert save_model(load_model(text)) + "\n" == text
    assert main(["evaluate", *data, "--model", str(tmp_path / "m" / "model.json"),
                 "--out", str(tmp_path / "s")]) == 0
    assert json.loads((tmp_path / "s" / "report.json").read_text())["model_kind"] == "prior"
    assert main(["evaluate", *data, "--model", "pr", "--out", str(tmp_path / "l")]) == 0
    doc = json.loads((tmp_path / "l" / "report.json").read_text())
    assert doc["provenance"]["train_config"]["kind"] == "prior"
    assert len(doc["folds"]) == 3
    capsys.readouterr()
    # the report takes the prior kind's convergence rule from KINDS
    assert main(["report", "--in", str(tmp_path / "l" / "report.json")]) == 0
    assert "converged folds: 3/3" in capsys.readouterr().out


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


def _fails_on_the_model_kind(argv: list[str], tmp_path, capsys) -> None:
    # the kind is resolved before any input is read, so its error wins over
    # the missing files
    code = main([*argv, "--records", str(tmp_path / "missing.jsonl"),
                 "--manifest", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "x")])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: unknown model kind 'svm'"), err
    assert not (tmp_path / "x").exists()


def test_unknown_model_kind_fails(tmp_path, capsys):
    _fails_on_the_model_kind(["evaluate", "--model", "svm"], tmp_path, capsys)


def test_train_refuses_an_unknown_model_kind_before_reading_input(tmp_path, capsys):
    _fails_on_the_model_kind(["train", "--model", "svm"], tmp_path, capsys)


def test_evaluate_malformed_model_file_fails_legibly(synth_dir, tmp_path, capsys):
    records = ["--records", str(synth_dir / "records.jsonl"),
               "--manifest", str(synth_dir / "manifest.csv")]
    assert main(["train", *records, "--model", "rf", "--out", str(tmp_path / "m")]) == 0
    good = json.loads((tmp_path / "m" / "model.json").read_text())
    assert main(["train", *records, "--model", "logreg", "--out", str(tmp_path / "lr")]) == 0
    logreg = json.loads((tmp_path / "lr" / "model.json").read_text())

    def tree_edit(field, value):
        def edit(doc):
            doc["parameters"]["trees"][0][field] = value
        return edit

    def drop_threshold(doc):
        del doc["parameters"]["trees"][3]["threshold"]

    def drop_trees(doc):
        doc["parameters"]["trees"] = []

    def delete(field):
        def edit(doc):
            del doc[field]
        return edit

    def put(field, value):
        def edit(doc):
            doc[field] = value
        return edit

    def second_class(value):
        def edit(doc):
            doc["classes"][1] = value
        return edit

    def first_bias(value):
        def edit(doc):
            doc["parameters"]["bias"][0] = value
        return edit

    def put_parameter(field, value):
        def edit(doc):
            doc["parameters"][field] = value
        return edit

    def first_weights_row(value):
        def edit(doc):
            doc["parameters"]["weights"][0] = value
        return edit

    malformed = "error: malformed model document: "
    n_nodes = len(good["parameters"]["trees"][0]["left"])
    bad_classes = malformed + "classes must be distinct ADL label ids in ascending order"
    edits = [
        (drop_trees, malformed + "forest has no trees"),
        (drop_threshold, malformed + "missing field 'threshold'"),
        (tree_edit("left", [0] * n_nodes),
         malformed + "tree node 0: child 0 out of range or not after it"),
        (tree_edit("feature", good["parameters"]["trees"][0]["feature"][:-1]),
         malformed + "tree arrays differ in length"),
        (tree_edit("feature", [2**70] * n_nodes),
         malformed + "tree internal node 2 carries a value"),
        (tree_edit("value", [[0.5]] * n_nodes),
         malformed + "tree internal node 0 carries a value"),
        (tree_edit("threshold", ["0.5"] * n_nodes), malformed + "expected a number, got '0.5'"),
        (put("kind", 5), malformed + "unknown model kind 5"),
        (second_class(good["classes"][0]), bad_classes),
        (second_class(7), bad_classes),
        (second_class(10**30), bad_classes),
        (put("classes", "ab"), malformed + "expected a list, got 'ab'"),
        (put("classes", "12"), malformed + "expected a list, got '12'"),
        (put("feature_config", {}), malformed + "missing field 'representation'"),
        (put("taxonomy_hash", "0" * 64),
         malformed + "taxonomy_hash differs from feature_config.taxonomy_hash"),
        (delete("schema_version"), "error: unsupported model schema version None (supported: 1)"),
        # written without a digest, since the edit deleted it
        (delete("digest"), "error: model digest mismatch: document corrupted or tampered"),
    ] + [
        (delete(field), malformed + f"missing field {field!r}")
        for field in ("kind", "hyperparameters", "feature_config", "feature_dim", "classes",
                      "class_names", "metadata", "parameters", "taxonomy_hash")
    ]
    logreg_edits = [
        (first_bias("1.5"), malformed + "expected a number, got '1.5'"),
        (first_bias(True), malformed + "expected a number, got True"),
        (first_weights_row([0.5]), malformed + "ragged array: nested lists differ in length"),
        # deeper than the 32 dimensions that numpy's flat iterator takes
        (put_parameter("bias", json.loads("[" * 40 + "0.5" + "]" * 40)),
         malformed + "logreg bias has shape (" + "1, " * 39 + "1), not (7,)"),
    ]
    cases = [(good, *case) for case in edits] + [(logreg, *case) for case in logreg_edits]
    for n, (base, edit, message) in enumerate(cases):
        doc = json.loads(json.dumps(base))
        edit(doc)
        bad = tmp_path / f"bad{n}.json"
        bad.write_text(redigest(doc) if "digest" in doc else json.dumps(doc))
        code = main(["evaluate", *records, "--model", str(bad), "--out", str(tmp_path / f"e{n}")])
        err = capsys.readouterr().err
        assert code == 1, (message, err)
        assert err.splitlines()[0] == message, err


@pytest.mark.parametrize(
    "name, content, reason",
    [
        pytest.param("report.json", "{bad", "EvaluationError: malformed report: Expecting property name",
                     id="not-json"),
        pytest.param("report.json", '{"x":1}', "KeyError: 'mean_weighted_f1'", id="missing-field"),
        pytest.param("report.json", "[1,2]", "EvaluationError: malformed report: not a JSON object",
                     id="not-an-object"),
        pytest.param("report.json", '{"mean_weighted_f1": ' + "1" * 5000 + "}",
                     "EvaluationError: malformed report: integer has too many digits",
                     id="integer-with-too-many-digits"),
        ("grid.csv", "representation,active_objects\nboth,yes\n", "ValueError"),
        pytest.param("report.json", json.dumps({
            "mode": "fixed-model", "weighted_f1": 10**400, "per_class_f1": [], "support": [],
            "confusion": [], "normalized_confusion": [], "zero_support_rows": [],
            "model_kind": "logreg", "model_metadata": {}}),
                     "OverflowError", id="integer-too-large-for-float"),
        pytest.param("report.json", "[" * 100_000, "EvaluationError: malformed report: nested too deeply",
                     id="deep-nesting"),
        pytest.param("grid.csv", ",".join(GRID_HEADER) + "\n" + "x" * 200_000 + "\n",
                     "field larger than field limit", id="field-over-csv-limit"),
        pytest.param("grid.csv", "", "(ValueError: grid is empty (header row required))",
                     id="empty-grid"),
        pytest.param("grid.csv", "binary,yes,logreg,0.9,0.1,100.0,3\n",
                     "(ValueError: grid header must be " + ",".join(GRID_HEADER) + ", got [",
                     id="grid-without-its-header"),
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


NESTED = b"[" * 100_000
LONG_INTEGER = b'{"segment_index": ' + b"1" * 5000 + b"}"  # beyond int's digit limit
TRUNCATED = b'{"seed": 1,'
TRUNCATED_MESSAGE = "Expecting property name enclosed in double quotes: line 1 column 12 (char 11)"
NOT_UTF8 = b"\xff\xfe{}"
SMALL_SPEC = genspec_to_json(clean_genspec(participants=2, segments_per_participant=7,
                                           frames_per_segment=2, seed=0))


def _spec_with(section, field, value) -> bytes:
    doc = json.loads(SMALL_SPEC)
    (doc[section] if section else doc)[field] = value
    return json.dumps(doc).encode()


@pytest.mark.parametrize(
    "args, content, message",
    [
        (["evaluate", "--model", "{f}", "--records", "r.jsonl", "--manifest", "m.csv"], NESTED,
         "error: corrupted model document: nested too deeply"),
        (["synth", "--spec", "{f}"], NESTED, "error: generator spec parse failure: nested too deeply"),
        (["synth", "--taxonomy", "{f}"], NESTED,
         "error: category table parse failure: nested too deeply"),
        (["evaluate", "--model", "{f}", "--records", "r.jsonl", "--manifest", "m.csv"], NOT_UTF8,
         "error: model file {f} is not valid UTF-8"),
        (["synth", "--spec", "{f}"], NOT_UTF8, "error: generator spec {f} is not valid UTF-8"),
        (["synth", "--taxonomy", "{f}"], NOT_UTF8, "error: category table {f} is not valid UTF-8"),
        (["evaluate", "--model", "{f}", "--records", "r.jsonl", "--manifest", "m.csv"],
         b'{"schema_version":1,"x":NaN}', "error: corrupted model document: number is NaN or infinite"),
        (["synth", "--spec", "{f}"], _spec_with("noise", "drop_rate", "x"),
         "error: invalid generator spec: expected a number, got 'x'"),
        (["synth", "--spec", "{f}"], _spec_with(None, "seed", float("inf")),
         "error: invalid generator spec: expected an integer, got inf"),
        (["synth", "--spec", "{f}"], _spec_with(None, "participants", 2.7),
         "error: invalid generator spec: expected an integer, got 2.7"),
        (["synth", "--spec", "{f}"], _spec_with(None, "frames_per_segment", True),
         "error: invalid generator spec: expected an integer, got True"),
        (["synth", "--spec", "{f}"], _spec_with("noise", "drop_rate", "0.25"),
         "error: invalid generator spec: expected a number, got '0.25'"),
        (["synth", "--spec", "{f}"], _spec_with("noise", "box_jitter_px", float("inf")),
         "error: box_jitter_px must be finite and at most half the largest float"),
        (["synth", "--box-jitter", "inf"], b"",
         "error: box_jitter_px must be finite and at most half the largest float"),
        (["synth", "--box-jitter", "nan"], b"",
         "error: box_jitter_px must be finite and at most half the largest float"),
        (["evaluate", "--model", "{f}", "--records", "r.jsonl", "--manifest", "m.csv"], LONG_INTEGER,
         "error: corrupted model document: integer has too many digits"),
        (["synth", "--spec", "{f}"], LONG_INTEGER,
         "error: generator spec parse failure: integer has too many digits"),
        (["synth", "--taxonomy", "{f}"], LONG_INTEGER,
         "error: category table parse failure: integer has too many digits"),
        (["synth", "--segments", str(10**400)], b"", "error: total must be <= 1000000"),
        (["synth", "--taxonomy", "{f}"], b'{"fallback": ["other"], "categories": {"other": []}}',
         "error: field 'fallback': ['other'] is not a listed category"),
        (["synth", "--taxonomy", "{f}"],
         b'{"placeholders": [["other"]], "categories": {"other": []}}',
         "error: field 'placeholders': ['other'] is not a listed category"),
        (["synth", "--taxonomy", "{f}"], b'{"placeholders": 5, "categories": {"other": []}}',
         "error: field 'placeholders': must be a list of category names"),
        (["evaluate", "--model", "{f}", "--records", "r.jsonl", "--manifest", "m.csv"], b"[]",
         "error: corrupted model document: not a JSON object"),
        (["synth", "--spec", "{f}"], b"[]", "error: generator spec parse failure: not a JSON object"),
        (["synth", "--taxonomy", "{f}"], b"[]",
         "error: category table parse failure: not a JSON object"),
        (["evaluate", "--model", "{f}", "--records", "r.jsonl", "--manifest", "m.csv"], TRUNCATED,
         "error: corrupted model document: " + TRUNCATED_MESSAGE),
        (["synth", "--spec", "{f}"], TRUNCATED,
         "error: generator spec parse failure: " + TRUNCATED_MESSAGE),
        (["synth", "--taxonomy", "{f}"], TRUNCATED,
         "error: category table parse failure: " + TRUNCATED_MESSAGE),
    ],
    ids=["evaluate-model", "synth-spec", "synth-taxonomy",
         "evaluate-model-not-utf8", "synth-spec-not-utf8", "synth-taxonomy-not-utf8",
         "evaluate-model-nan", "synth-spec-rate-not-a-number", "synth-spec-seed-infinite",
         "synth-spec-participants-float", "synth-spec-frames-bool", "synth-spec-rate-string",
         "synth-spec-jitter-infinite", "synth-box-jitter-infinite", "synth-box-jitter-nan",
         "evaluate-model-long-integer", "synth-spec-long-integer", "synth-taxonomy-long-integer",
         "synth-segments-overflow", "synth-taxonomy-fallback-list",
         "synth-taxonomy-placeholder-list", "synth-taxonomy-placeholders-number",
         "evaluate-model-not-an-object", "synth-spec-not-an-object", "synth-taxonomy-not-an-object",
         "evaluate-model-truncated", "synth-spec-truncated", "synth-taxonomy-truncated"],
)
def test_deeply_nested_json_inputs_fail_legibly(tmp_path, args, content, message):
    deep = tmp_path / "deep.json"
    deep.write_bytes(content)
    argv = [a.replace("{f}", str(deep)) for a in args] + ["--out", str(tmp_path / "out")]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src") + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-m", "adlrec", *argv], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith(message.replace("{f}", str(deep))), proc.stderr
    assert "Traceback" not in proc.stderr


def _n_test(fold: dict) -> int:
    """A report.json fold's test segments: its confusion matrix's sum."""
    return sum(map(sum, fold["confusion"]))


def test_report_counts_gb_folds_that_reached_the_deviance_tol(synth_dir, tmp_path, capsys, monkeypatch):
    data = ["--records", str(synth_dir / "records.jsonl"),
            "--manifest", str(synth_dir / "manifest.csv")]
    assert main(["evaluate", *data, "--model", "gb", "--out", str(tmp_path / "stopped")]) == 0
    doc = json.loads((tmp_path / "stopped" / "report.json").read_text())
    assert {fold["stopping_reason"] for fold in doc["folds"]} == {"converged"}
    assert all(fold["iterations"] < 100 for fold in doc["folds"])
    capsys.readouterr()
    assert main(["report", "--in", str(tmp_path / "stopped" / "report.json")]) == 0
    text = capsys.readouterr().out
    assert "converged folds: 3/3" in text and "not converged" not in text
    # with the stop off every fold builds all 100 stages
    monkeypatch.setattr(boosting, "TOL", 0.0)
    assert main(["evaluate", *data, "--model", "gb", "--out", str(tmp_path / "full")]) == 0
    capsys.readouterr()
    assert main(["report", "--in", str(tmp_path / "full" / "report.json")]) == 0
    text = capsys.readouterr().out
    assert "converged folds: 0/3" in text
    doc = json.loads((tmp_path / "full" / "report.json").read_text())
    for fold in doc["folds"]:
        line = f"{fold['participant_id']}: F1 {fold['weighted_f1']:.2f} (n={_n_test(fold)})"
        assert line + "  not converged: max-iterations after 100 iterations\n" in text


def test_report_counts_early_stopped_folds_as_converged(tmp_path, capsys):
    corpus = tmp_path / "c"
    assert main(["synth", "--participants", "2", "--segments", "7", "--frames", "2",
                 "--seed", "3", "--out", str(corpus)]) == 0
    assert main(["evaluate", "--records", str(corpus / "records.jsonl"), "--manifest",
                 str(corpus / "manifest.csv"), "--model", "logreg", "--out", str(tmp_path / "e")]) == 0
    doc = json.loads((tmp_path / "e" / "report.json").read_text())
    doc["provenance"]["train_config"]["kind"] = "mlp"
    doc["folds"][0].update(stopping_reason="early-stopped", iterations=90)
    doc["folds"][1].update(stopping_reason="max-iterations", iterations=200)
    path = tmp_path / "report.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["report", "--in", str(path)]) == 0
    text = capsys.readouterr().out
    assert "converged folds: 1/2" in text
    first, second = (f"{fold['participant_id']}: F1 {fold['weighted_f1']:.2f} (n={_n_test(fold)})"
                     for fold in doc["folds"])
    assert first + "\n" in text
    assert second + "  not converged: max-iterations after 200 iterations" in text


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


def test_failing_ablation_cell_stops_the_pool_legibly(tmp_path):
    # every participant does one ADL, so every cell's first fold trains on one class
    corpus = tmp_path / "c"
    assert main(["synth", "--participants", "2", "--segments", "3", "--frames", "2",
                 "--seed", "0", "--out", str(corpus)]) == 0
    manifest = corpus / "manifest.csv"
    header, *rows = manifest.read_text().splitlines()
    adl = {"p01": "Communication Management", "p02": "Home Management"}
    manifest.write_text("\n".join(
        [header] + [",".join(row.split(",")[:3] + [adl[row.split(",")[0]]]) for row in rows]
    ) + "\n")
    started = tmp_path / "started.txt"
    # Forced onto two CPUs; forked workers inherit the patched fold loop, which
    # logs each cell and is slow enough for the pending cells never to start.
    script = f"""
import os, sys, time
from adlrec import cli, evaluation
from helpers import config_label
os.sched_getaffinity = lambda pid: {{0, 1}}
run_loso_matrix = evaluation.run_loso_matrix
def logged(X, y, owners, feature_config, train_config):
    with open({str(started)!r}, "a") as log:
        log.write(config_label(feature_config) + " " + train_config.kind + "\\n")
    time.sleep(0.5)
    return run_loso_matrix(X, y, owners, feature_config, train_config)
evaluation.run_loso_matrix = logged
sys.exit(cli.main(sys.argv[1:]))
"""
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests"), os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", script, "ablate", "--records", str(corpus / "records.jsonl"),
         "--manifest", str(manifest), "--out", str(tmp_path / "g")],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120,
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == "error: fold 'p01': training data contains a single class\n"
    assert not (tmp_path / "g" / "grid.csv").exists()
    cells = started.read_text().splitlines()
    assert "counts+no-active logreg" in cells
    # Cells already sent to the two workers still run (4 here: the first two
    # fail after the same pause, and each worker is sent its next cell as its
    # answer is read); the rest of the 24 never start. The bound leaves room
    # for a slow parent process.
    assert len(cells) <= 12, cells


def test_ablate_refuses_one_participant_before_forking(tmp_path, capsys, monkeypatch):
    corpus = tmp_path / "c"
    assert main(["synth", "--participants", "1", "--segments", "3", "--frames", "2",
                 "--seed", "0", "--out", str(corpus)]) == 0
    capsys.readouterr()

    def fork():
        raise AssertionError("a worker was forked")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", fork)
    out = tmp_path / "g"
    assert main(["ablate", "--records", str(corpus / "records.jsonl"),
                 "--manifest", str(corpus / "manifest.csv"), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: leave-one-subject-out needs at least 2 participants\n"
    assert not (out / "grid.csv").exists()


def test_killed_ablation_worker_stops_the_pool_legibly(tmp_path):
    corpus = tmp_path / "c"
    assert main(["synth", "--participants", "2", "--segments", "7", "--frames", "2",
                 "--seed", "0", "--out", str(corpus)]) == 0
    # Forced onto two CPUs; the worker that runs the first gb cell (the
    # grid's third) kills itself, through the fold loop that it inherited.
    script = """
import os, signal, sys
from adlrec import cli, evaluation
from helpers import config_label
os.sched_getaffinity = lambda pid: {0, 1}
run_loso_matrix = evaluation.run_loso_matrix
def killing(X, y, owners, feature_config, train_config):
    if config_label(feature_config) == "counts+no-active" and train_config.kind == "gradient_boosting":
        os.kill(os.getpid(), signal.SIGKILL)
    return run_loso_matrix(X, y, owners, feature_config, train_config)
evaluation.run_loso_matrix = killing
code = cli.main(sys.argv[1:])
try:
    os.waitpid(-1, os.WNOHANG)
    print("a worker was left behind", file=sys.stderr)
except ChildProcessError:
    pass
sys.exit(code)
"""
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests"), os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", script, "ablate", "--records", str(corpus / "records.jsonl"),
         "--manifest", str(corpus / "manifest.csv"), "--out", str(tmp_path / "g")],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120,
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == "error: a worker ended without an answer\n"
    assert not (tmp_path / "g" / "grid.csv").exists()


def test_killed_synth_worker_stops_synth_legibly(tmp_path):
    # Forced onto two workers; the one that generates p02 kills itself.
    script = """
import os, signal, sys
from adlrec import cli, synthgen
os.sched_getaffinity = lambda pid: {0, 1}
def generate(spec, table, participants=None):
    if list(participants) == [1]:
        os.kill(os.getpid(), signal.SIGKILL)
    return synthgen.generate(spec, table, participants)
cli.generate = generate
code = cli.main(sys.argv[1:])
try:
    os.waitpid(-1, os.WNOHANG)
    print("a worker was left behind", file=sys.stderr)
except ChildProcessError:
    pass
sys.exit(code)
"""
    out = tmp_path / "corpus"
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", script, "synth", "--participants", "3", "--segments", "14",
         "--frames", "6", "--out", str(out)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=60,
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == "error: a worker ended without an answer\n"
    assert not (out / "run_manifest.json").exists()


def test_failing_synth_worker_stops_synth_legibly(tmp_path):
    # Forced onto two workers: p01's worker raises after a pause, by which
    # time the other worker has sent p02's texts (about 0.2 MB of records
    # per participant, against a 64 KiB pipe) and then p03's, which synth
    # holds until p01's turn.
    script = """
import os, sys, time
from adlrec import cli, synthgen
os.sched_getaffinity = lambda pid: {0, 1}
def generate(spec, table, participants=None):
    if list(participants) == [0]:
        time.sleep(1.0)
        raise synthgen.GenError("participant p01 refused")
    return synthgen.generate(spec, table, participants)
cli.generate = generate
code = cli.main(sys.argv[1:])
try:
    os.waitpid(-1, os.WNOHANG)
    print("a worker was left behind", file=sys.stderr)
except ChildProcessError:
    pass
sys.exit(code)
"""
    out = tmp_path / "corpus"
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", script, "synth", "--participants", "3", "--segments", "50",
         "--frames", "13", "--out", str(out)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=60,
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == "error: participant p01 refused\n"
    assert not (out / "run_manifest.json").exists()


def test_report_on_tree_ensemble_folds_makes_no_convergence_claim(synth_dir, tmp_path, capsys):
    out = tmp_path / "rf"
    assert main(["evaluate", "--records", str(synth_dir / "records.jsonl"),
                 "--manifest", str(synth_dir / "manifest.csv"),
                 "--model", "rf", "--seed", "1", "--out", str(out)]) == 0
    capsys.readouterr()
    doc = json.loads((out / "report.json").read_text())
    assert {fold["stopping_reason"] for fold in doc["folds"]} == {"max-iterations"}
    assert main(["report", "--in", str(out / "report.json")]) == 0
    text = capsys.readouterr().out
    assert "converged" not in text
    for fold in doc["folds"]:
        line = f"  {fold['participant_id']}: F1 {fold['weighted_f1']:.2f} (n={_n_test(fold)})\n"
        assert line in text


def test_run_manifest_inputs_are_the_path_arguments(tmp_path, monkeypatch):
    # relative paths, "./" prefixes, and a file named like a model kind that
    # no command reads
    monkeypatch.chdir(tmp_path)
    Path("logreg").write_text("not a model")
    Path("tax.json").write_bytes((ROOT / "src" / "adlrec" / "data" / "categories.json").read_bytes())
    Path("spec.json").write_text(SMALL_SPEC)
    data = ["--records", "./c/records.jsonl", "--manifest", "c/manifest.csv"]
    labeled = ["c/records.jsonl", "c/manifest.csv"]
    runs = [
        (["synth", "--participants", "3", "--segments", "14", "--frames", "6", "--seed", "12",
          "--out", "c"], []),
        (["synth", "--spec", "./spec.json", "--taxonomy", "tax.json", "--out", "s"],
         ["spec.json", "tax.json"]),
        (["featurize", *data, "--out", "f"], labeled),
        (["featurize", "--records", "c/records.jsonl", "--out", "fi"],
         ["c/records.jsonl"]),
        (["train", *data, "--taxonomy", "./tax.json", "--model", "logreg", "--out", "m"],
         [*labeled, "tax.json"]),
        (["evaluate", *data, "--model", "logreg", "--out", "l"], labeled),
        (["evaluate", *data, "--taxonomy", "tax.json", "--model", "./m/model.json", "--out", "e"],
         [*labeled, "tax.json", "m/model.json"]),
        (["ablate", *data, "--models", "logreg", "--out", "a"], labeled),
    ]
    for argv, inputs in runs:
        assert main(argv) == 0, argv
        doc = json.loads((tmp_path / argv[-1] / "run_manifest.json").read_text())
        assert doc["command"] == argv[0]
        assert doc["inputs"] == {
            path: hashlib.sha256(Path(path).read_bytes()).hexdigest() for path in inputs
        }, argv


def test_an_output_named_like_an_input_is_digested_as_it_was_read(tmp_path):
    # a rerun into its own --out replaces the spec it read, after reading it
    out = tmp_path / "d"
    args = ["synth", "--participants", "2", "--segments", "7", "--frames", "2", "--seed", "1"]
    assert main([*args, "--out", str(out)]) == 0
    spec = out / "genspec.json"
    canonical = spec.read_bytes()
    spec.write_text(json.dumps(json.loads(canonical)))  # the same spec, compact
    compact = hashlib.sha256(spec.read_bytes()).hexdigest()
    assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 0
    assert spec.read_bytes() == canonical
    doc = json.loads((out / "run_manifest.json").read_text())
    assert doc["inputs"] == {str(spec): compact}
    # featurize reading records saved as features.csv replaces them too
    records = out / "features.csv"
    shutil.copyfile(out / "records.jsonl", records)
    digest = hashlib.sha256(records.read_bytes()).hexdigest()
    argv = ["featurize", "--records", str(records), "--manifest", str(out / "manifest.csv")]
    assert main([*argv, "--out", str(out)]) == 0
    doc = json.loads((out / "run_manifest.json").read_text())
    assert doc["inputs"][str(records)] == digest
    assert doc["outputs"]["features.csv"] != digest


def test_write_run_holds_no_whole_input_or_output(tmp_path, monkeypatch):
    records = tmp_path / "records.jsonl"
    records.write_bytes(bytes(range(256)) * (1 << 15))  # 8 MiB
    out = tmp_path / "out"
    args = argparse.Namespace(command="featurize", out=str(out), records=str(records),
                              manifest=None, taxonomy=None)
    pieces = (f"{n:07d}\n" * 8192 for n in range(128))  # 128 pieces of 64 KiB: 8 MiB
    # two files from one pass over the pieces, each piece to both
    outputs = itertools.chain(
        ((name, piece) for piece in pieces for name in ("big.txt", "copy.txt")),
        [("small.txt", "one string")],
    )
    digested = []
    digest_file = cli._digest_file
    monkeypatch.setattr(cli, "_digest_file", lambda path: digested.append(Path(path).name)
                        or digest_file(path))
    tracemalloc.start()
    try:
        cli._write_run(args, {}, None, outputs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    doc = json.loads((out / "run_manifest.json").read_text())
    assert doc["inputs"] == {str(records): hashlib.sha256(records.read_bytes()).hexdigest()}
    assert doc["outputs"] == {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("big.txt", "copy.txt", "small.txt")
    }
    assert (out / "big.txt").stat().st_size == 8 << 20
    assert (out / "copy.txt").read_bytes() == (out / "big.txt").read_bytes()
    # every digest is read back from its own file, and once
    assert sorted(digested) == ["big.txt", "copy.txt", "records.jsonl", "small.txt"]
    assert (out / "small.txt").read_text() == "one string"
    assert peak < 2 << 20, peak


def _write_args(out):
    return argparse.Namespace(command="featurize", out=str(out), records=None, manifest=None,
                              taxonomy=None)


def test_rerun_replaces_linked_outputs_instead_of_writing_through(tmp_path):
    out = tmp_path / "out"
    names = ("hard.txt", "soft.txt", "plain.txt")
    cli._write_run(_write_args(out), {}, None, [(name, "old\n") for name in names])
    # a snapshot of an earlier run, as `cp -l` or `ln -s` would leave it
    hard, soft = tmp_path / "hard-snapshot.txt", tmp_path / "soft-snapshot.txt"
    hard.write_text("kept\n")
    soft.write_text("kept\n")
    (out / "hard.txt").unlink()
    os.link(hard, out / "hard.txt")
    (out / "soft.txt").unlink()
    (out / "soft.txt").symlink_to(soft)
    cli._write_run(_write_args(out), {}, None, [(name, "new\n") for name in names])
    assert hard.read_text() == soft.read_text() == "kept\n"
    assert hard.stat().st_nlink == 1
    for name in names:
        path = out / name
        assert not path.is_symlink() and path.is_file(), name
        assert path.stat().st_nlink == 1, name
        assert path.read_text() == "new\n", name
    outputs = json.loads((out / "run_manifest.json").read_text())["outputs"]
    assert outputs == {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                       for name in names}


def test_failed_rerun_leaves_no_stale_manifest(synth_dir, tmp_path, capsys):
    out = tmp_path / "out"
    cli._write_run(_write_args(out), {}, None, [("a.txt", "old a\n"), ("b.txt", "old b\n")])
    (out / "b.txt").unlink()
    (out / "b.txt").mkdir()
    with pytest.raises(IsADirectoryError):
        cli._write_run(_write_args(out), {}, None, [("a.txt", "new a\n"), ("b.txt", "new b\n")])
    assert (out / "a.txt").read_text() == "new a\n"
    assert not (out / "run_manifest.json").exists()

    # the same through the CLI: synth writes its records before manifest.csv
    argv = ["synth", "--participants", "3", "--segments", "14", "--frames", "6", "--seed", "13",
            "--out", str(synth_dir)]
    assert (synth_dir / "run_manifest.json").exists()
    (synth_dir / "manifest.csv").unlink()
    (synth_dir / "manifest.csv").mkdir()
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert not (synth_dir / "run_manifest.json").exists()


def test_corpus_load_leaves_a_disabled_collector_off(synth_dir):
    args = argparse.Namespace(records=str(synth_dir / "records.jsonl"),
                              manifest=str(synth_dir / "manifest.csv"))
    gc.disable()
    try:
        assert cli._load_segments(args)[0].segments
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_corpus_load_leaves_the_collector_on(synth_dir, tmp_path):
    records, manifest = synth_dir / "records.jsonl", synth_dir / "manifest.csv"
    assert gc.isenabled()
    result, _ = cli._load_segments(argparse.Namespace(records=str(records), manifest=str(manifest)))
    assert result.segments
    assert gc.isenabled()
    # training mode with a manifest that lacks one segment's label
    short = tmp_path / "short.csv"
    short.write_text("".join(manifest.read_text().splitlines(keepends=True)[:-1]))
    with pytest.raises(RecordError):
        cli._load_segments(argparse.Namespace(records=str(records), manifest=str(short)))
    assert gc.isenabled()


def test_features_csv_is_written_a_row_at_a_time(tmp_path, table, monkeypatch):
    segments = generate(clean_genspec(8, 750, 3, seed=1), table).segments
    config = FeatureConfig(representation="both", use_active=True,
                           taxonomy_hash=table.content_hash)
    args = _write_args(tmp_path)
    matrix = feature_matrix(segments, table, config)
    monkeypatch.setattr(cli, "feature_matrix", lambda *_: matrix)  # built untraced
    tracemalloc.start()
    try:
        lines = cli._features_csv(segments, table, config)
        cli._write_run(args, {}, None, zip(itertools.repeat("features.csv"), lines))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = (tmp_path / "features.csv").stat().st_size
    assert size > 3 << 20
    assert peak < 1 << 20, peak


def test_features_csv_reads_back_as_the_feature_matrix(tmp_path, table):
    corpus, out = tmp_path / "c", tmp_path / "f"
    assert main(["synth", "--preset", "distractor", "--participants", "3", "--segments", "14",
                 "--frames", "6", "--drop-rate", "0.1", "--spurious-rate", "0.2", "--seed", "7",
                 "--out", str(corpus)]) == 0
    assert main(["featurize", "--records", str(corpus / "records.jsonl"), "--manifest",
                 str(corpus / "manifest.csv"), "--representation", "both", "--out", str(out)]) == 0
    with open(corpus / "records.jsonl", encoding="utf-8") as stream:
        result, _ = load_corpus(stream, (corpus / "manifest.csv").read_text())
    config = FeatureConfig(representation="both", use_active=True, taxonomy_hash=table.content_hash)
    X, keys = feature_matrix(result.segments, table, config)
    with open(out / "features.csv", newline="", encoding="utf-8") as stream:
        assert next(stream).startswith("# adlrec-features")
        _, *rows = csv.reader(stream)
    assert [(p, v, int(i)) for p, v, i, *_ in rows] == keys
    # every cell a float's shortest repr, exactly the matrix's value
    assert [[float(cell) for cell in row[4:]] for row in rows] == X.tolist()


def test_cli_import_loads_no_process_pool(tmp_path):
    pool = "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))"
    # nor does a synth or an ablate run forced onto two forked workers
    corpus = tmp_path / "c"
    synth = ["synth", "--participants", "2", "--segments", "7", "--frames", "2", "--out", str(corpus)]
    ablate = ["ablate", "--records", str(corpus / "records.jsonl"), "--manifest",
              str(corpus / "manifest.csv"), "--models", "logreg", "--out", str(tmp_path / "g")]
    forced = "import os, sys, adlrec.cli; os.sched_getaffinity = lambda pid: {0, 1}; "
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src") + os.pathsep + os.environ.get("PYTHONPATH", ""))
    for code in ("import sys, adlrec.cli",
                 f"{forced}assert adlrec.cli.main({synth!r}) == 0",
                 f"{forced}assert adlrec.cli.main({ablate!r}) == 0"):
        proc = subprocess.run([sys.executable, "-c", f"{code}; {pool}"], capture_output=True,
                              text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]", proc.stdout


@pytest.fixture(scope="module")
def report_sources(tmp_path_factory):
    """A real LOSO report.json, saved-model scored.json and grid.csv to
    mutate, plus a scratch path."""
    work = tmp_path_factory.mktemp("report_fuzz")
    corpus = work / "corpus"
    records = ["--records", str(corpus / "records.jsonl"), "--manifest", str(corpus / "manifest.csv")]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["synth", "--participants", "2", "--segments", "7", "--frames", "2",
                     "--seed", "3", "--out", str(corpus)]) == 0
        assert main(["evaluate", *records, "--model", "mlp", "--out", str(work / "e")]) == 0
        assert main(["ablate", *records, "--models", "logreg", "--out", str(work / "g")]) == 0
        assert main(["train", *records, "--model", "gb", "--out", str(work / "m")]) == 0
        assert main(["evaluate", *records, "--model", str(work / "m" / "model.json"),
                     "--out", str(work / "s")]) == 0
    return {
        "report.json": (work / "e" / "report.json").read_bytes(),
        "scored.json": (work / "s" / "report.json").read_bytes(),
        "grid.csv": (work / "g" / "grid.csv").read_bytes(),
        "scratch": work,
    }


def write_anew(path, content: bytes) -> None:
    """Write `content` to a new file at `path`. Unlinking is cheap where
    truncating an allocated file is not (tens of milliseconds on a
    filesystem mounted with online discard), and the mutation tests write
    one file per example."""
    path.unlink(missing_ok=True)
    path.write_bytes(content)


def _at(node, path):
    for step in path:
        node = node[step]
    return node


def _paths(node, path=()):
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, path + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _paths(value, path + (index,))


WRONG_TYPES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.just(10**400), st.floats(),
    st.text(max_size=4), st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


def _mutate_report(data, source: bytes) -> bytes:
    doc = json.loads(source)
    # a prefix of a random path, so whole objects and top-level keys are drawn too
    path = data.draw(st.sampled_from(list(_paths(doc))))
    path = path[: data.draw(st.integers(0, len(path)))]
    if not path:
        return json.dumps(data.draw(WRONG_TYPES)).encode()
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    if data.draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(WRONG_TYPES)
    return json.dumps(doc).encode()


def _mutate_grid(data, source: bytes) -> bytes:
    rows = [line.split(",") for line in source.decode().splitlines()]
    row = data.draw(st.integers(0, len(rows) - 1))
    if data.draw(st.booleans()):
        rows[row] = rows[row][: data.draw(st.integers(0, len(rows[row]) - 1))]
    else:
        column = data.draw(st.integers(0, len(rows[row]) - 1))
        rows[row][column] = data.draw(st.text(max_size=6))
    return "\n".join(",".join(fields) for fields in rows).encode()


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_report_on_mutated_files_exits_0_or_1_with_error_line(report_sources, data):
    name = data.draw(st.sampled_from(["report.json", "scored.json", "grid.csv"]))
    source = report_sources[name]
    mutation = data.draw(st.sampled_from(["structure", "truncate", "non-utf8"]))
    if mutation == "structure":
        content = (_mutate_report if name.endswith(".json") else _mutate_grid)(data, source)
    elif mutation == "truncate":
        content = source[: data.draw(st.integers(0, len(source) - 1))]
    else:
        at = data.draw(st.integers(0, len(source)))
        content = source[:at] + data.draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"])) + source[at:]
    path = report_sources["scratch"] / name
    write_anew(path, content)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["report", "--in", str(path)])
    assert code in (0, 1)
    if code == 1:
        assert err.getvalue().startswith(f"error: {path} is not a report.json or grid.csv")
        assert out.getvalue() == ""
    else:
        assert err.getvalue() == ""


def test_report_renders_a_saved_model_score(report_sources, capsys):
    path = report_sources["scratch"] / "scored.json"
    write_anew(path, report_sources["scored.json"])
    assert main(["report", "--in", str(path)]) == 0
    doc = json.loads(report_sources["scored.json"])
    assert doc["mode"] == "fixed-model"
    rows = [f"  {name:<32} " + " ".join(f"{v:.2f}" for v in row)
            for name, row in zip(ADL_NAMES, doc["normalized_confusion"])]
    # no folds, so no convergence line
    assert capsys.readouterr().out.splitlines() == [
        f"weighted F1 on {_n_test(doc)} segments: {doc['weighted_f1']:.2f}",
        "row-normalized confusion matrix:", *rows]


def test_evaluate_prints_what_report_prints_for_its_report(synth_dir, tmp_path, capsys):
    data = ["--records", str(synth_dir / "records.jsonl"),
            "--manifest", str(synth_dir / "manifest.csv")]
    assert main(["train", *data, "--model", "gb", "--out", str(tmp_path / "m")]) == 0
    saved = str(tmp_path / "m" / "model.json")
    for model, out in (("mlp", tmp_path / "loso"), (saved, tmp_path / "s")):
        capsys.readouterr()
        assert main(["evaluate", *data, "--model", model, "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert main(["report", "--in", str(out / "report.json")]) == 0
        assert printed == capsys.readouterr().out, model
        assert "row-normalized confusion matrix:" in printed


@pytest.mark.parametrize("width", [6, 9])
def test_report_refuses_a_grid_row_of_another_width(report_sources, capsys, width):
    header, first, *rest = report_sources["grid.csv"].decode().splitlines(keepends=True)
    cells = first.rstrip("\n").split(",")
    row = ",".join((cells + ["x", "y"])[:width]) + "\n"
    path = report_sources["scratch"] / "grid.csv"
    write_anew(path, "".join([header, first, row, *rest]).encode())
    assert main(["report", "--in", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: {path} is not a report.json or grid.csv "
                   f"(ValueError: grid line 3: expected 7 fields, got {width})\n")


def test_report_renders_a_crlf_grid_and_skips_blank_rows(report_sources, capsys):
    source = report_sources["grid.csv"]
    rendered = []
    for content in (source, source.replace(b"\n", b"\r\n"), source.replace(b"\n", b"\n\n")):
        path = report_sources["scratch"] / "grid.csv"
        write_anew(path, content)
        assert main(["report", "--in", str(path)]) == 0
        rendered.append(capsys.readouterr().out)
    assert rendered[0].count("logreg") == 6
    assert rendered[1] == rendered[0] and rendered[2] == rendered[0]


SPEC_VALUES = [None, "x", -1, 0, 0.5, 2, 2**63, 1e308, float("nan"), float("inf"), [], {}, True]


def _draw_leaf(data, node) -> tuple:
    """A path to a leaf, one uniform choice per level, so that the few
    top-level fields are drawn as often as the many profile entries."""
    path = ()
    while isinstance(node, (dict, list)) and node:
        step = data.draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        path, node = path + (step,), node[step]
    return path


@settings(deadline=None)
@given(data=st.data())
def test_synth_on_mutated_spec_exits_0_or_1_with_error_line(tmp_path_factory, data):
    doc = json.loads(SMALL_SPEC)
    path = _draw_leaf(data, doc)
    if data.draw(st.booleans()):
        keys = [path[: i + 1] for i, step in enumerate(path) if isinstance(step, str)]
        path = data.draw(st.sampled_from(keys))
        del _at(doc, path[:-1])[path[-1]]
    else:
        _at(doc, path[:-1])[path[-1]] = data.draw(st.sampled_from(SPEC_VALUES))
    work = tmp_path_factory.mktemp("spec_fuzz")
    spec = work / "spec.json"
    spec.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["synth", "--spec", str(spec), "--out", str(work / "out")])
    assert code in (0, 1)
    if code == 1:
        assert err.getvalue().startswith("error: "), err.getvalue()
    else:
        assert err.getvalue() == ""


@pytest.fixture(scope="module")
def input_sources(tmp_path_factory):
    """A small corpus's manifest.csv and records.jsonl and the default
    category table to mutate, plus a scratch path."""
    work = tmp_path_factory.mktemp("input_fuzz")
    corpus = work / "corpus"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["synth", "--participants", "2", "--segments", "7", "--frames", "2",
                     "--seed", "3", "--out", str(corpus)]) == 0
    sources = {name: (corpus / name).read_bytes() for name in ("manifest.csv", "records.jsonl")}
    sources["categories.json"] = (ROOT / "src" / "adlrec" / "data" / "categories.json").read_bytes()
    return sources, work


LONG_FIELD = "x" * 200_000  # beyond the csv module's 131,072-character field limit
INPUT_VALUES = st.one_of(st.sampled_from(SPEC_VALUES), WRONG_TYPES)


def _mutate_json(data, doc, mutation: str):
    """One leaf, or one list or object on the path to it, replaced or deleted."""
    path = _draw_leaf(data, doc)
    path = path[: data.draw(st.integers(1, len(path)))]
    parent = _at(doc, path[:-1])
    if mutation == "delete":
        del parent[path[-1]]
    else:
        parent[path[-1]] = LONG_FIELD if mutation == "long" else data.draw(INPUT_VALUES)
    return doc


def _mutate_input(data, name: str, source: bytes) -> bytes:
    mutation = data.draw(st.sampled_from(["replace", "delete", "long", "truncate", "non-utf8"]))
    if mutation == "truncate":
        return source[: data.draw(st.integers(0, len(source) - 1))]
    if mutation == "non-utf8":
        at = data.draw(st.integers(0, len(source)))
        return source[:at] + data.draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"])) + source[at:]
    if name == "categories.json":
        return json.dumps(_mutate_json(data, json.loads(source), mutation)).encode()
    lines = source.decode().splitlines()
    row = data.draw(st.integers(0, len(lines) - 1))
    if name == "records.jsonl":
        lines[row] = json.dumps(_mutate_json(data, json.loads(lines[row]), mutation))
    else:
        fields = lines[row].split(",")
        column = data.draw(st.integers(0, len(fields) - 1))
        if mutation == "delete":
            del fields[column]
        else:
            fields[column] = LONG_FIELD if mutation == "long" else data.draw(st.text(max_size=6))
        lines[row] = ",".join(fields)
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("name", ["manifest.csv", "records.jsonl", "categories.json"])
@settings(deadline=None)
@given(data=st.data())
def test_commands_on_mutated_inputs_exit_0_or_1_with_a_message(input_sources, name, data):
    sources, work = input_sources
    path = work / name
    write_anew(path, _mutate_input(data, name, sources[name]))
    if name == "categories.json":
        shutil.rmtree(work / "out", ignore_errors=True)  # synth writes into a fresh directory
        argv = ["synth", "--taxonomy", str(path), "--participants", "1", "--segments", "7",
                "--frames", "1", "--out", str(work / "out")]
    else:
        files = {n: str(path if n == name else work / "corpus" / n)
                 for n in ("records.jsonl", "manifest.csv")}
        argv = ["ingest-validate", "--records", files["records.jsonl"],
                "--manifest", files["manifest.csv"]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1)
    if code == 1:
        assert err.getvalue(), "exit 1 without a message"


MODEL_KINDS = ["logreg", "rf", "gb", "mlp"]
# a re-digested document holds no NaN or infinity, which save_model never writes
FINITE_VALUES = INPUT_VALUES.filter(lambda v: not isinstance(v, float) or math.isfinite(v))


@pytest.fixture(scope="module")
def model_sources(tmp_path_factory):
    """Arguments naming a small corpus, and a scratch path holding a saved
    model.json of each kind in a directory named after the kind."""
    work = tmp_path_factory.mktemp("model_fuzz")
    corpus = work / "corpus"
    records = ["--records", str(corpus / "records.jsonl"), "--manifest", str(corpus / "manifest.csv")]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["synth", "--participants", "2", "--segments", "7", "--frames", "2",
                     "--seed", "3", "--out", str(corpus)]) == 0
        for kind in MODEL_KINDS:
            assert main(["train", *records, "--model", kind, "--out", str(work / kind)]) == 0
    return records, work


@pytest.mark.parametrize("kind", MODEL_KINDS)
@settings(deadline=None)
@given(data=st.data())
def test_evaluate_on_mutated_model_exits_0_or_1_with_error_line(model_sources, kind, data):
    # one leaf of a saved model replaced, and the document re-digested so
    # that the load reaches the content checks
    records, work = model_sources
    doc = json.loads((work / kind / "model.json").read_text())
    path = _draw_leaf(data, doc)
    _at(doc, path[:-1])[path[-1]] = data.draw(FINITE_VALUES)
    model = work / "model.json"
    write_anew(model, redigest(doc).encode())
    shutil.rmtree(work / "e", ignore_errors=True)  # evaluate writes into a fresh directory
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["evaluate", *records, "--model", str(model), "--out", str(work / "e")])
    assert code in (0, 1)
    if code == 1:
        assert err.getvalue().startswith("error: "), err.getvalue()
