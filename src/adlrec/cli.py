"""Command-line pipeline: synth -> ingest-validate -> featurize -> train /
evaluate / ablate -> report.

Every output directory receives exactly one run_manifest.json recording the
command, resolved configuration, input digests, seed, and tool version, so
any result file can be traced back to its inputs. All randomness flows from
--seed (default DEFAULT_SEED). Numbers printed to the terminal are rounded
to 2 decimals; files keep full precision.
"""

import argparse
import contextlib
import gc
import hashlib
import itertools
import json
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Iterator

from . import __version__
from .documents import csv_lines, from_document, read_csv, read_object, to_document
from .evaluation import (
    EvaluationError,
    EvaluationReport,
    GRID_HEADER,
    ScoredReport,
    grid_to_csv,
    label_ids,
    run_ablation,
    run_loso,
    score_model,
)
from .features import REPRESENTATIONS, FeatureConfig, FeatureError, feature_matrix, feature_names
from .models import (
    KINDS,
    ModelFormatError,
    TrainConfig,
    TrainingError,
    load_model,
    resolve_kind,
    save_model,
    train_matrix,
)
from .parallel import fork_map
from .records import MANIFEST_HEADER, RecordError, load_corpus, serialize_segments, write_manifest
from .synthgen import (
    GenError,
    NoiseSpec,
    check_spec,
    clean_genspec,
    distractor_genspec,
    generate,
    genspec_from_json,
    genspec_to_json,
)
from .taxonomy import (
    ADL_NAMES,
    TaxonomyError,
    default_category_table,
    load_category_table,
)

DEFAULT_SEED = 1729
PRESETS = {"clean": clean_genspec, "distractor": distractor_genspec}
# synth's preset flags by dest, and the value each takes where not given; the
# parser leaves them None, so that --spec can refuse every one given
_PRESET_DEFAULTS = {
    "preset": "clean",
    "participants": 16,
    "segments": 50,
    "frames": 13,
    "drop_rate": 0.0,
    "spurious_rate": 0.0,
    "label_confusion_rate": 0.0,
    "box_jitter": 0.0,
    "seed": DEFAULT_SEED,
}

_ERRORS = (
    TaxonomyError,
    RecordError,
    FeatureError,
    TrainingError,
    EvaluationError,
    GenError,
    ModelFormatError,
    OSError,
)


def _names_model_file(model: str) -> bool:
    """Whether a --model value is a saved model's path; a model kind never
    is, even where a file has its name."""
    return not any(model in (k.NAME, *k.ALIASES) for k in KINDS) and Path(model).is_file()


def _refuse(flags: dict[str, object], reason: str, error: type[Exception]) -> None:
    """Raise one error naming every flag of `flags` that was given (not None)."""
    if given := [flag for flag, value in flags.items() if value is not None]:
        raise error(f"{reason}: drop {', '.join(given)}")


def _digest_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as stream:
        while block := stream.read(1 << 18):
            digest.update(block)
    return digest.hexdigest()


def _write_run(args, config: dict, seed: int | None,
               outputs: Iterable[tuple[str, str | bytes]]) -> None:
    """Write --out's files from one stream of (file name, str or bytes) pairs, in
    order, then run_manifest.json with the digests of the command's path arguments
    and of each output, read back once all are closed. A name's first pair unlinks
    any old file and creates a new one, so a link there is never written through."""
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    # a run that fails part-way leaves no manifest describing other files
    (out_dir / "run_manifest.json").unlink(missing_ok=True)
    with contextlib.ExitStack() as stack:
        files = {}
        for name, piece in outputs:
            if name not in files:
                (out_dir / name).unlink(missing_ok=True)
                files[name] = stack.enter_context(open(out_dir / name, "xb"))
            files[name].write(piece.encode() if isinstance(piece, str) else piece)
    paths = [getattr(args, name, None) for name in ("spec", "records", "manifest", "taxonomy")]
    if hasattr(args, "model") and _names_model_file(args.model):
        paths.append(args.model)
    manifest = json.dumps({
        "command": args.command,
        "config": config,
        "inputs": {str(Path(p)): _digest_file(p) for p in paths if p},
        "outputs": {name: _digest_file(out_dir / name) for name in files},
        "seed": seed,
        "tool_version": __version__,
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }, indent=2, sort_keys=True)
    (out_dir / "run_manifest.json").write_bytes(manifest.encode())


def _read_utf8(path: str, error: type[Exception], what: str) -> str:
    try:
        return Path(path).read_text("utf-8")
    except UnicodeDecodeError:
        raise error(f"{what} {path} is not valid UTF-8") from None


def _load_table(args):
    if getattr(args, "taxonomy", None):
        return load_category_table(_read_utf8(args.taxonomy, TaxonomyError, "category table"))
    return default_category_table()


def _load_segments(args, needs_manifest=True):
    """The corpus, labeled if and only if a --manifest is given; a command
    that fits or scores a model needs one. Rejected records and manifest rows
    whose segment has no frames are listed on stderr."""
    # a records line that is not UTF-8 becomes one rejected-record diagnostic
    with open(args.records, encoding="utf-8", errors="surrogateescape") as record_stream:
        manifest = None
        if args.manifest:
            manifest = _read_utf8(args.manifest, RecordError, "manifest")
        elif args.manifest is not None:
            raise RecordError("--manifest names no file")
        elif needs_manifest:
            raise RecordError(f"{args.command} needs --manifest")
        # the parser builds no reference cycle, so a collection during the
        # load frees nothing and only rescans the growing corpus
        enabled = gc.isenabled()
        gc.disable()
        try:
            result, diagnostics = load_corpus(record_stream, manifest)
        finally:
            if enabled:
                gc.enable()
    for diag in diagnostics:
        print(f"{args.records}:{diag.line}: rejected record: {diag.message}", file=sys.stderr)
    for key in result.labels_without_frames:
        print(f"manifest label without frames: {key}", file=sys.stderr)
    if needs_manifest and not result.segments:
        raise RecordError(f"no segment loaded from {args.records}")
    return result, diagnostics


def _feature_config(args, table) -> FeatureConfig:
    # the feature flags are None where not given (see _add_feature_flags)
    return FeatureConfig(
        representation=args.representation or "binary",
        use_active=args.active is not False,
        taxonomy_hash=table.content_hash,
    )


def cmd_synth(args) -> int:
    if args.spec:
        flags = {"--" + dest.replace("_", "-"): getattr(args, dest) for dest in _PRESET_DEFAULTS}
        _refuse(flags, "a generator spec fixes the corpus and its seed", GenError)
        spec = genspec_from_json(_read_utf8(args.spec, GenError, "generator spec"))
    else:
        for dest, default in _PRESET_DEFAULTS.items():
            if getattr(args, dest) is None:
                setattr(args, dest, default)
        noise = NoiseSpec(args.drop_rate, args.spurious_rate, args.label_confusion_rate,
                          args.box_jitter)
        spec = PRESETS[args.preset](args.participants, args.segments, args.frames, args.seed, noise)
    table = _load_table(args)
    check_spec(spec, table)  # once, before any worker starts
    preset = None if args.spec else args.preset
    config = {"spec": args.spec, "preset": preset, "taxonomy_hash": table.content_hash}
    texts = fork_map(lambda p: _participant_texts(spec, table, p), range(spec.participants))
    names = ("records.jsonl", "truth_records.jsonl", "manifest.csv")
    with contextlib.closing(texts):
        outputs = itertools.chain((pair for parts in texts for pair in zip(names, parts)),
                                  [("genspec.json", genspec_to_json(spec) + "\n")])
        _write_run(args, config, spec.seed, outputs)
    segments = spec.participants * sum(spec.segments_per_participant)
    print(f"wrote {segments} segments ({spec.participants} participants) to {args.out}")
    return 0


def _participant_texts(spec, table, participant: int) -> tuple[bytes, bytes, bytes]:
    """One participant's records, truth records and manifest rows (the first
    participant's with the header); without noise, the records twice."""
    corpus = generate(spec, table, [participant])
    records = "".join(line + "\n" for line in serialize_segments(corpus.segments)).encode()
    truth = records
    if corpus.truth_segments is not corpus.segments:
        truth = "".join(line + "\n" for line in serialize_segments(corpus.truth_segments)).encode()
    return records, truth, write_manifest(corpus.truth_segments, participant == 0).encode()


def cmd_ingest_validate(args) -> int:
    result, diagnostics = _load_segments(args, needs_manifest=False)
    n_valid = sum(len(s.frames) for s in result.segments)
    print(
        f"segments: {len(result.segments)}  valid records: {n_valid}  "
        f"rejected records: {len(diagnostics)}"
    )
    return 1 if diagnostics else 0


def _features_csv(segments, table, config) -> Iterator[str]:
    """features.csv as its header and then one piece per row of Python floats.
    The matrix is built at the call, so a featurization error comes first."""
    X, keys = feature_matrix(segments, table, config)
    labels = {s.key: s.label.name if s.label else "" for s in segments}
    comment = (
        f"# adlrec-features representation={config.representation} "
        f"active={str(config.use_active).lower()} taxonomy={config.taxonomy_hash}\n"
    )
    rows = ([*key, labels[key], *row.tolist()] for row, key in zip(X, keys))
    header = [*MANIFEST_HEADER, *feature_names(table, config)]
    return itertools.chain((comment,), csv_lines(itertools.chain((header,), rows)))


def cmd_featurize(args) -> int:
    table = _load_table(args)
    result, diagnostics = _load_segments(args, needs_manifest=False)
    config = _feature_config(args, table)
    outputs = zip(itertools.repeat("features.csv"), _features_csv(result.segments, table, config))
    _write_run(args, {**asdict(config), "rejected_records": len(diagnostics)}, None, outputs)
    print(
        f"featurized {len(result.segments)} segments -> "
        f"{len(feature_names(table, config))} columns"
    )
    if diagnostics:
        print(f"rejected records: {len(diagnostics)}", file=sys.stderr)
        return 1
    return 0


def cmd_train(args) -> int:
    cfg = TrainConfig(kind=resolve_kind(args.model).NAME, seed=args.seed)  # before any input
    table = _load_table(args)
    result, diagnostics = _load_segments(args)
    config = _feature_config(args, table)
    X, keys = feature_matrix(result.segments, table, config)
    model = train_matrix(X, label_ids(result.segments, keys), cfg, feature_config=config)
    run_config = {"model": model.kind, **asdict(config), "hyperparameters": model.hyperparameters}
    _write_run(args, run_config, args.seed, [("model.json", save_model(model) + "\n")])
    print(
        f"trained {model.kind} on {X.shape[0]} segments "
        f"({model.metadata['stopping_reason']} after {model.metadata['iterations']} iterations)"
    )
    return 1 if diagnostics else 0


def _score_fixed_model(args, table) -> int:
    flags = {"--representation": args.representation, "--active/--no-active": args.active,
             "--seed": args.seed}
    reason = "a saved model fixes its features and scoring draws no random number"
    _refuse(flags, reason, EvaluationError)
    model = load_model(_read_utf8(args.model, ModelFormatError, "model file"))
    if model.feature_config.taxonomy_hash != table.content_hash:
        raise FeatureError("model was trained under a different taxonomy version")
    result, diagnostics = _load_segments(args)
    X, keys = feature_matrix(result.segments, table, model.feature_config)
    y_true = label_ids(result.segments, keys)
    report, y_pred = score_model(model, X, y_true)

    header = [*MANIFEST_HEADER[:3], "true_adl", "predicted_adl"]
    rows = ([*key, ADL_NAMES[yt], ADL_NAMES[yp]] for key, yt, yp in zip(keys, y_true, y_pred))
    predictions = csv_lines(itertools.chain((header,), rows))
    outputs = itertools.chain([("report.json", json.dumps(to_document(report), indent=2) + "\n")],
                              zip(itertools.repeat("predictions.csv"), predictions))
    config = {"model_file": args.model, "taxonomy_hash": table.content_hash}
    _write_run(args, config, None, outputs)  # scoring draws no random number
    print(_render_report(report), end="")
    return 1 if diagnostics else 0


def cmd_evaluate(args) -> int:
    if _names_model_file(args.model):
        return _score_fixed_model(args, _load_table(args))
    seed = DEFAULT_SEED if args.seed is None else args.seed
    cfg = TrainConfig(kind=resolve_kind(args.model).NAME, seed=seed)  # before any input
    table = _load_table(args)
    result, diagnostics = _load_segments(args)
    config = _feature_config(args, table)
    report = run_loso(result.segments, table, config, cfg)
    outputs = [("report.json", json.dumps(to_document(report), indent=2) + "\n")]
    _write_run(args, {"model": cfg.kind, **asdict(config)}, seed, outputs)
    print(_render_report(report), end="")
    return 1 if diagnostics else 0


def cmd_ablate(args) -> int:
    # the kinds are resolved before any input is read
    kinds = [resolve_kind(k.strip()).NAME for k in args.models.split(",") if k.strip()]
    if not kinds:
        raise TrainingError("no models requested")
    if repeated := next((k for i, k in enumerate(kinds) if k in kinds[:i]), None):
        raise TrainingError(f"--models names model kind {repeated!r} more than once")
    table = _load_table(args)
    result, diagnostics = _load_segments(args)
    cells = run_ablation(result.segments, table, kinds, args.seed)
    grid_csv = grid_to_csv(cells)
    outputs = [("grid.csv", grid_csv),
               ("ablation.json", json.dumps(to_document(cells), indent=2) + "\n")]
    _write_run(args, {"models": kinds, "taxonomy_hash": table.content_hash}, args.seed, outputs)
    print(_render_grid(grid_csv), end="")
    return 1 if diagnostics else 0


def _render_grid(grid_csv: str) -> str:
    """Terminal view of a grid file, 2-decimal rounding; refuses a row of another width."""
    out = [
        f"{'representation':<16}{'active':<8}{'model':<20}"
        f"{'mean wF1':<12}{'std':<8}{'% > 0.5':<8}"
    ]
    for n, row in read_csv(grid_csv, GRID_HEADER, ValueError, "grid"):
        if len(row) != len(GRID_HEADER):
            raise ValueError(f"grid line {n}: expected {len(GRID_HEADER)} fields, got {len(row)}")
        rep, active, model, mean, std, pct, _ = row
        out.append(
            f"{rep:<16}{active:<8}{model:<20}"
            f"{float(mean):<12.2f}{float(std):<8.2f}{float(pct):<8.0f}"
        )
    return "\n".join(out) + "\n"


def _render_report(report: EvaluationReport | ScoredReport) -> str:
    out = []
    if isinstance(report, EvaluationReport):
        out.append(
            f"mean weighted F1: {report.mean_weighted_f1:.2f} +/- {report.std_weighted_f1:.2f}"
        )
        out.append(f"participants > 0.5: {report.percent_above_half:.0f}%")
        names, folds = report.class_names, report.folds
        kind = report.provenance["train_config"]["kind"]
    else:
        out.append(f"weighted F1 on {report.confusion.sum()} segments: {report.weighted_f1:.2f}")
        names, folds, kind = ADL_NAMES, [], None
    out.append("row-normalized confusion matrix:")
    for name, row in zip(names, report.normalized_confusion):
        cells = " ".join(f"{v:.2f}" for v in row)
        out.append(f"  {name:<32} {cells}")
    # empty for a kind with no convergence test, or one this version lacks
    converged_reasons = next((k.CONVERGED_REASONS for k in KINDS if k.NAME == kind), ())
    if converged_reasons:
        converged = sum(fold.stopping_reason in converged_reasons for fold in folds)
        out.append(f"converged folds: {converged}/{len(folds)}")
    for fold in folds:
        line = f"  {fold.participant_id}: F1 {fold.weighted_f1:.2f} (n={fold.n_test})"
        if converged_reasons and fold.stopping_reason not in converged_reasons:
            line += f"  not converged: {fold.stopping_reason} after {fold.iterations} iterations"
        out.append(line)
    return "\n".join(out) + "\n"


def cmd_report(args) -> int:
    try:
        text = Path(args.input).read_text("utf-8")
        if args.input.endswith(".csv") or text.startswith("representation,"):
            rendered = _render_grid(text)
        else:
            doc = read_object(text, EvaluationError, "malformed report")
            kind = ScoredReport if doc.get("mode") == "fixed-model" else EvaluationReport
            rendered = _render_report(from_document(kind, doc))
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        # OverflowError: a number too large for a float
        raise EvaluationError(
            f"{args.input} is not a report.json or grid.csv ({type(exc).__name__}: {exc})"
        ) from None
    print(rendered, end="")
    return 0


def _add_common_io(sub, records=True, taxonomy=True, out=True, seed=True):
    if records:
        sub.add_argument("--records", required=True, help="frame record JSONL file")
        sub.add_argument("--manifest", help="segment label manifest CSV")
    if taxonomy:
        sub.add_argument("--taxonomy", help="category table JSON (default: packaged table)")
    if out:
        sub.add_argument("--out", required=True, help="output directory")
    if seed:
        sub.add_argument("--seed", type=int, default=DEFAULT_SEED, help="root random seed")


def _add_feature_flags(sub):
    # None where not given, so that evaluate --model FILE can refuse them;
    # _feature_config resolves None to binary and active
    sub.add_argument(
        "--representation",
        choices=REPRESENTATIONS,
        help="Bag-of-Objects representation (default: binary)",
    )
    sub.add_argument(
        "--active",
        action=argparse.BooleanOptionalAction,
        help="append the active-object channel block (default: on)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adlrec",
        description="Object-centric ADL recognition pipeline over detection records.",
    )
    parser.add_argument("--version", action="version", version=f"adlrec {__version__}")
    # each kind as its name, then its aliases: "NAME|ALIAS, ..."
    kind_names = ", ".join("|".join((k.NAME, *k.ALIASES)) for k in KINDS)
    commands = parser.add_subparsers(dest="command", required=True)

    synth = commands.add_parser("synth", help="generate a synthetic labeled corpus")
    synth.add_argument("--spec", help="generator spec JSON (refuses the preset flags)")
    # the preset flags and --seed are None where not given (see _PRESET_DEFAULTS)
    synth.add_argument("--preset", choices=PRESETS)
    synth.add_argument("--participants", type=int)
    synth.add_argument(
        "--segments", type=int, help="segments per participant (per-ADL split is proportional)"
    )
    synth.add_argument("--frames", type=int, help="frames per segment (1 FPS)")
    synth.add_argument("--drop-rate", type=float)
    synth.add_argument("--spurious-rate", type=float)
    synth.add_argument("--label-confusion-rate", type=float)
    synth.add_argument("--box-jitter", type=float)
    _add_common_io(synth, records=False)
    synth.set_defaults(func=cmd_synth, seed=None)

    validate = commands.add_parser("ingest-validate", help="validate record/manifest files")
    _add_common_io(validate, out=False, taxonomy=False, seed=False)
    validate.set_defaults(func=cmd_ingest_validate)

    featurize = commands.add_parser("featurize", help="write the feature matrix CSV")
    # featurizing draws no random number, so it takes no --seed
    _add_common_io(featurize, seed=False)
    _add_feature_flags(featurize)
    featurize.set_defaults(func=cmd_featurize)

    train = commands.add_parser("train", help="train one classifier on all segments")
    _add_common_io(train)
    _add_feature_flags(train)
    train.add_argument("--model", default=KINDS[0].NAME, help=kind_names)
    train.set_defaults(func=cmd_train)

    evaluate = commands.add_parser(
        "evaluate", help="LOSO-evaluate a model kind, or score a saved model file"
    )
    _add_common_io(evaluate)
    _add_feature_flags(evaluate)
    evaluate.add_argument(
        "--model",
        default=KINDS[0].NAME,
        help=f"model kind ({kind_names}) for LOSO, or a saved model.json path",
    )
    # seed None where not given, so that a saved model file can refuse it; LOSO resolves it
    evaluate.set_defaults(func=cmd_evaluate, seed=None)

    ablate = commands.add_parser("ablate", help="run the feature x model ablation grid")
    _add_common_io(ablate)
    ablate.add_argument(
        "--models",
        default=",".join(k.NAME for k in KINDS),
        help=f"comma-separated model kinds ({kind_names})",
    )
    ablate.set_defaults(func=cmd_ablate)

    report = commands.add_parser("report", help="render a report.json or grid.csv")
    report.add_argument("--in", dest="input", required=True, help="report or grid file")
    report.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
