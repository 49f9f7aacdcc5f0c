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
import csv
import gc
import hashlib
import io
import itertools
import json
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Iterator

from . import __version__
from .documents import to_document
from .evaluation import (
    EvaluationError,
    ablation_to_document,
    grid_to_csv,
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
from .records import MANIFEST_HEADER, RecordError, load_corpus, serialize_segments, write_manifest
from .synthgen import (
    GenError,
    NoiseSpec,
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


def _digest_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as stream:
        while block := stream.read(1 << 18):
            digest.update(block)
    return digest.hexdigest()


def _write(paths: list[Path], pieces: Iterable[str]) -> list[str]:
    """Write text pieces to every path in one pass, one piece at a time;
    return each file's sha256, read back from disk. An old file at a path is
    unlinked and a new one created, not truncated in place, so a link named
    like an output is replaced, never written through."""
    for path in paths:
        path.unlink(missing_ok=True)
    with contextlib.ExitStack() as stack:
        outs = [stack.enter_context(open(path, "xb")) for path in paths]
        for piece in pieces:
            data = piece.encode()
            for out in outs:
                out.write(data)
    return [_digest_file(path) for path in paths]


def _write_run(args, config: dict, seed: int | None, files: dict[str, Iterable[str]]) -> None:
    """Write output files, each given as text pieces (a one-item tuple for one
    string), to --out plus the directory's run_manifest.json, whose inputs
    are the files the command's path arguments name. Names given the very
    same pieces object get equal files, written in one pass over it."""
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    # a run that fails part-way leaves no manifest describing other files
    (out_dir / "run_manifest.json").unlink(missing_ok=True)
    outputs = {}
    for pieces in {id(pieces): pieces for pieces in files.values()}.values():
        names = [name for name, named in files.items() if named is pieces]
        outputs.update(zip(names, _write([out_dir / name for name in names], pieces)))
    paths = [getattr(args, name, None) for name in ("spec", "records", "manifest", "taxonomy")]
    if hasattr(args, "model") and _names_model_file(args.model):
        paths.append(args.model)
    manifest = {
        "command": args.command,
        "config": config,
        "inputs": {str(Path(p)): _digest_file(p) for p in paths if p},
        "outputs": outputs,
        "seed": seed,
        "tool_version": __version__,
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }
    _write([out_dir / "run_manifest.json"], (json.dumps(manifest, indent=2, sort_keys=True),))


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
    that fits or scores a model needs one."""
    # a records line that is not UTF-8 becomes one rejected-record diagnostic
    with open(args.records, encoding="utf-8", errors="surrogateescape") as record_stream:
        manifest = None
        if args.manifest:
            manifest = _read_utf8(args.manifest, RecordError, "manifest")
        elif needs_manifest or args.manifest is not None:  # an empty --manifest names no file
            raise RecordError("training mode requires --manifest")
        # the parser builds no reference cycle, so a collection during the
        # load frees nothing and only rescans the growing corpus
        gc.disable()
        try:
            result, diagnostics = load_corpus(record_stream, manifest)
        finally:
            gc.enable()
    for diag in diagnostics:
        print(f"{args.records}:{diag.line}: rejected record: {diag.message}", file=sys.stderr)
    return result, diagnostics


def _feature_config(args, table) -> FeatureConfig:
    return FeatureConfig(
        representation=args.representation,
        use_active=args.active,
        taxonomy_hash=table.content_hash,
    )


def cmd_synth(args) -> int:
    if args.spec:
        spec = genspec_from_json(_read_utf8(args.spec, GenError, "generator spec"))
    else:
        noise = NoiseSpec(
            drop_rate=args.drop_rate,
            spurious_rate=args.spurious_rate,
            label_confusion_rate=args.label_confusion_rate,
            box_jitter_px=args.box_jitter,
        )
        spec = PRESETS[args.preset](
            participants=args.participants,
            segments_per_participant=args.segments,
            frames_per_segment=args.frames,
            seed=args.seed,
            noise=noise,
        )
    table = _load_table(args)
    corpus = generate(spec, table)
    records = (line + "\n" for line in serialize_segments(corpus.segments))
    if corpus.truth_segments is not corpus.segments:
        truth = (line + "\n" for line in serialize_segments(corpus.truth_segments))
    else:  # no noise: one stream, serialized once, written under both names
        truth = records
    files = {
        "records.jsonl": records,
        "truth_records.jsonl": truth,
        "manifest.csv": (write_manifest(corpus.truth_segments),),
        "genspec.json": (genspec_to_json(spec) + "\n",),
    }
    preset = None if args.spec else args.preset
    config = {"spec": args.spec, "preset": preset, "taxonomy_hash": table.content_hash}
    _write_run(args, config, spec.seed, files)
    print(
        f"wrote {len(corpus.segments)} segments "
        f"({spec.participants} participants) to {args.out}"
    )
    return 0


def cmd_ingest_validate(args) -> int:
    result, diagnostics = _load_segments(args, needs_manifest=False)
    n_valid = sum(len(s.frames) for s in result.segments)
    print(
        f"segments: {len(result.segments)}  valid records: {n_valid}  "
        f"rejected records: {len(diagnostics)}"
    )
    for key in result.labels_without_frames:
        print(f"manifest label without frames: {key}", file=sys.stderr)
    return 1 if diagnostics else 0


class _Line:
    """A file whose write returns its text, so that the writerow of a
    csv.writer over it returns the row's line."""

    def write(self, text: str) -> str:
        return text


def _features_csv(segments, table, config) -> Iterator[str]:
    """features.csv as its header and then one piece per row. The matrix is
    built at the call, so a featurization error comes before any write."""
    X, keys = feature_matrix(segments, table, config)
    labels = {s.key: s.label.name if s.label else "" for s in segments}
    line = csv.writer(_Line(), lineterminator="\n").writerow
    header = (
        f"# adlrec-features representation={config.representation} "
        f"active={str(config.use_active).lower()} taxonomy={config.taxonomy_hash}\n"
    ) + line([*MANIFEST_HEADER, *feature_names(table, config)])
    rows = (line([*key, labels[key], *map(repr, row)]) for row, key in zip(X, keys))
    return itertools.chain((header,), rows)


def cmd_featurize(args) -> int:
    table = _load_table(args)
    result, diagnostics = _load_segments(args, needs_manifest=False)
    config = _feature_config(args, table)
    files = {"features.csv": _features_csv(result.segments, table, config)}
    _write_run(args, {**asdict(config), "rejected_records": len(diagnostics)}, None, files)
    print(
        f"featurized {len(result.segments)} segments -> "
        f"{config.dimension(len(table))} columns"
    )
    if diagnostics:
        print(f"rejected records: {len(diagnostics)}", file=sys.stderr)
        return 1
    return 0


def cmd_train(args) -> int:
    table = _load_table(args)
    result, diagnostics = _load_segments(args)
    config = _feature_config(args, table)
    X, keys = feature_matrix(result.segments, table, config)
    labels = {s.key: s.label.id for s in result.segments}
    y = [labels[k] for k in keys]
    cfg = TrainConfig(kind=resolve_kind(args.model).NAME, seed=args.seed)
    model = train_matrix(X, y, cfg, feature_config=config)
    files = {"model.json": (save_model(model) + "\n",)}
    run_config = {"model": model.kind, **asdict(config), "hyperparameters": model.hyperparameters}
    _write_run(args, run_config, args.seed, files)
    print(
        f"trained {model.kind} on {X.shape[0]} segments "
        f"({model.metadata['stopping_reason']} after {model.metadata['iterations']} iterations)"
    )
    return 1 if diagnostics else 0


def _score_fixed_model(args, table) -> int:
    model = load_model(_read_utf8(args.model, ModelFormatError, "model file"))
    if model.feature_config.taxonomy_hash != table.content_hash:
        raise FeatureError("model was trained under a different taxonomy version")
    result, diagnostics = _load_segments(args)
    X, keys = feature_matrix(result.segments, table, model.feature_config)
    labels = {s.key: s.label.id for s in result.segments}
    y_true = [labels[k] for k in keys]
    report, y_pred = score_model(model, X, y_true)

    line = csv.writer(_Line(), lineterminator="\n").writerow
    header = line([*MANIFEST_HEADER[:3], "true_adl", "predicted_adl"])
    rows = (
        line([*key, ADL_NAMES[yt], ADL_NAMES[int(yp)]]) for key, yt, yp in zip(keys, y_true, y_pred)
    )
    files = {
        "report.json": (json.dumps(report, indent=2) + "\n",),
        "predictions.csv": itertools.chain((header,), rows),
    }
    config = {"model_file": args.model, "taxonomy_hash": table.content_hash}
    _write_run(args, config, None, files)  # scoring draws no random number
    print(f"weighted F1 on {len(y_true)} segments: {report['weighted_f1']:.2f}")
    return 1 if diagnostics else 0


def cmd_evaluate(args) -> int:
    table = _load_table(args)
    if _names_model_file(args.model):
        return _score_fixed_model(args, table)
    result, diagnostics = _load_segments(args)
    config = _feature_config(args, table)
    cfg = TrainConfig(kind=resolve_kind(args.model).NAME, seed=args.seed)
    report = run_loso(result.segments, table, config, cfg)
    files = {"report.json": (json.dumps(to_document(report), indent=2) + "\n",)}
    _write_run(args, {"model": cfg.kind, **asdict(config)}, args.seed, files)
    print(
        f"LOSO weighted F1: {report.mean_weighted_f1:.2f} +/- {report.std_weighted_f1:.2f}  "
        f"participants > 0.5: {report.percent_above_half:.0f}%"
    )
    for fold in report.folds:
        print(f"  {fold.participant_id}: F1 {fold.weighted_f1:.2f} (n={fold.n_test})")
    return 1 if diagnostics else 0


def cmd_ablate(args) -> int:
    table = _load_table(args)
    result, diagnostics = _load_segments(args)
    kinds = [resolve_kind(k.strip()).NAME for k in args.models.split(",") if k.strip()]
    if not kinds:
        raise TrainingError("no models requested")
    cells = run_ablation(result.segments, table, kinds, args.seed)
    grid_csv = grid_to_csv(cells)
    files = {
        "grid.csv": (grid_csv,),
        "ablation.json": (json.dumps(ablation_to_document(cells), indent=2) + "\n",),
    }
    _write_run(args, {"models": kinds, "taxonomy_hash": table.content_hash}, args.seed, files)
    print(_render_grid(grid_csv), end="")
    return 1 if diagnostics else 0


def _render_grid(grid_csv: str) -> str:
    """Terminal view of a grid file, 2-decimal rounding."""
    rows = list(csv.reader(io.StringIO(grid_csv)))
    out = [
        f"{'representation':<16}{'active':<8}{'model':<20}"
        f"{'mean wF1':<12}{'std':<8}{'% > 0.5':<8}"
    ]
    for row in rows[1:]:
        rep, active, model, mean, std, pct = row[:6]
        out.append(
            f"{rep:<16}{active:<8}{model:<20}"
            f"{float(mean):<12.2f}{float(std):<8.2f}{float(pct):<8.0f}"
        )
    return "\n".join(out) + "\n"


def _render_report(doc: dict) -> str:
    out = []
    if "mean_weighted_f1" in doc:
        out.append(
            f"mean weighted F1: {doc['mean_weighted_f1']:.2f} +/- {doc['std_weighted_f1']:.2f}"
        )
        out.append(f"participants > 0.5: {doc['percent_above_half']:.0f}%")
    else:
        out.append(f"weighted F1: {doc['weighted_f1']:.2f}")
    out.append("row-normalized confusion matrix:")
    names = doc.get("class_names", ADL_NAMES)
    for name, row in zip(names, doc["normalized_confusion"]):
        cells = " ".join(f"{v:.2f}" for v in row)
        out.append(f"  {name:<32} {cells}")
    folds = doc.get("folds", [])
    kind = doc["provenance"]["train_config"]["kind"] if folds else None
    # empty for a kind with no convergence test, or one this version lacks
    converged_reasons = next((k.CONVERGED_REASONS for k in KINDS if k.NAME == kind), ())
    # reports written before folds recorded convergence have no reasons
    reasons = [fold.get("stopping_reason") if converged_reasons else None for fold in folds]
    if converged_reasons and None not in reasons:
        converged = sum(reason in converged_reasons for reason in reasons)
        out.append(f"converged folds: {converged}/{len(folds)}")
    for fold, reason in zip(folds, reasons):
        line = f"  {fold['participant_id']}: F1 {fold['weighted_f1']:.2f}"
        if reason is not None and reason not in converged_reasons:
            line += f"  not converged: {reason} after {fold['iterations']} iterations"
        out.append(line)
    return "\n".join(out) + "\n"


def cmd_report(args) -> int:
    try:
        text = Path(args.input).read_text("utf-8")
        if args.input.endswith(".csv") or text.startswith("representation,"):
            rendered = _render_grid(text)
        else:
            rendered = _render_report(json.loads(text))
    except (
        ValueError,
        KeyError,
        TypeError,
        AttributeError,  # a fold, or another object, that is not a JSON object
        OverflowError,  # an integer too large to format as a float
        RecursionError,  # JSON nested deeper than the parser's recursion limit
        csv.Error,  # a grid field longer than the csv module's field limit
    ) as exc:
        print(
            f"error: {args.input} is not a report.json or grid.csv "
            f"({type(exc).__name__}: {exc})",
            file=sys.stderr,
        )
        return 1
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
    sub.add_argument(
        "--representation",
        choices=REPRESENTATIONS,
        default="binary",
        help="Bag-of-Objects representation",
    )
    sub.add_argument(
        "--active",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="append the active-object channel block",
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
    synth.add_argument("--spec", help="generator spec JSON (overrides preset flags)")
    synth.add_argument("--preset", choices=PRESETS, default="clean")
    synth.add_argument("--participants", type=int, default=16)
    synth.add_argument(
        "--segments", type=int, default=50, help="segments per participant (per-ADL split is proportional)"
    )
    synth.add_argument("--frames", type=int, default=13, help="frames per segment (1 FPS)")
    synth.add_argument("--drop-rate", type=float, default=0.0)
    synth.add_argument("--spurious-rate", type=float, default=0.0)
    synth.add_argument("--label-confusion-rate", type=float, default=0.0)
    synth.add_argument("--box-jitter", type=float, default=0.0)
    _add_common_io(synth, records=False)
    synth.set_defaults(func=cmd_synth)

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
    evaluate.set_defaults(func=cmd_evaluate)

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
