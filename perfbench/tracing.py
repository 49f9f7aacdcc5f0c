"""Spans and counters recorded around calls into adlrec's modules.

The program is not changed: `Tracer.installed()` replaces module and class
attributes at the place their caller looks them up (for example
`adlrec.evaluation.feature_matrix`, which `run_loso` calls, rather than
`adlrec.features.feature_matrix`) and puts the originals back on exit.

A span covers one call into a layer. A layer's self time is its spans'
durations minus the time their child spans cover, so the self times of all
layers under one `cli` span add up to that span. `features.mark_active`
runs once per frame and feature pass (about 333k calls on loso-paper), so
it is recorded as an aggregate time and count with no span of its own; its
time is still taken out of the enclosing features span.

Every span and counter carries the phase it ran in: "setup" for the
commands that make the workload's inputs, "run" for the workload command.
"""

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

MODEL_KINDS = ("logreg", "random_forest", "gradient_boosting", "mlp")
CONVERGING_KINDS = ("logreg", "mlp")  # kinds that can stop before max-iterations
NESTED_LAYERS = ("models.tree.build", "models.tree.apply")  # only run inside a fit or predict


def _model_metrics(kind: str) -> list[tuple[str, str, str]]:
    metrics = [
        (f"models.{kind}.fit_s", "s", "lower"),
        (f"models.{kind}.fits", "count", "lower"),
        (f"models.{kind}.iterations", "count", "lower"),
    ]
    if kind in CONVERGING_KINDS:
        metrics.append((f"models.{kind}.converged_ratio", "ratio", "higher"))
    return metrics


# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = [
    ("synthgen.generate_s", "s", "lower"),
    ("synthgen.records", "count", "lower"),
    ("records.load_s", "s", "lower"),
    ("records.lines", "count", "lower"),
    ("records.rejected", "count", "lower"),
    ("interaction.mark_s", "s", "lower"),
    ("interaction.calls", "count", "lower"),
    ("interaction.pairs", "count", "lower"),
    ("interaction.active_ratio", "ratio", "higher"),
    ("features.matrix_s", "s", "lower"),
    ("features.self_s", "s", "lower"),
    ("features.rows", "count", "lower"),
    ("features.unique_row_ratio", "ratio", "higher"),
    *[metric for kind in MODEL_KINDS for metric in _model_metrics(kind)],
    ("models.predict_s", "s", "lower"),
    ("models.predict_rows", "count", "lower"),
    ("models.tree.build_s", "s", "lower"),
    ("models.tree.builds", "count", "lower"),
    ("models.tree.nodes", "count", "lower"),
    ("models.tree.apply_s", "s", "lower"),
    ("models.tree.apply_rows", "count", "lower"),
    ("models.store.load_s", "s", "lower"),
    ("models.store.save_s", "s", "lower"),
    ("models.store.bytes", "count", "lower"),
    ("evaluation.loso_s", "s", "lower"),
    ("evaluation.self_s", "s", "lower"),
    ("evaluation.folds", "count", "lower"),
    ("cli.total_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.output_bytes", "count", "lower"),
]


@dataclass
class Span:
    layer: str
    phase: str
    parent: "Span | None"
    start: float
    end: float = 0.0
    child_s: float = 0.0  # time covered by direct children

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.phase = "setup"
        self.spans: list[Span] = []
        self.counts = defaultdict(int)  # (phase, counter) -> value
        # interaction per phase: [seconds, calls, pairs, marks, active marks],
        # a plain list because mark_active is hooked on every frame
        self.interaction = defaultdict(lambda: [0.0, 0, 0, 0, 0])
        self.row_keys: set = set()  # distinct (segment key, feature config) rows
        self._open: list[Span] = []

    def begin(self, layer: str) -> Span:
        span = Span(layer, self.phase, self._open[-1] if self._open else None, time.perf_counter())
        self._open.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._open.pop()
        if span.parent is not None:
            span.parent.child_s += span.duration
        self.spans.append(span)

    def add(self, counter: str, value: int) -> None:
        self.counts[self.phase, counter] += value

    @contextmanager
    def installed(self):
        """Wrap the hooked adlrec names for the duration of the block."""
        saved = []
        try:
            for owner_path, attribute, make in _HOOKS:
                module, _, cls = owner_path.partition(":")
                owner = importlib.import_module(module)
                if cls:
                    owner = getattr(owner, cls)
                original = owner.__dict__[attribute]
                saved.append((owner, attribute, original))
                setattr(owner, attribute, functools.wraps(original)(make(self, original)))
            yield self
        finally:
            for owner, attribute, original in reversed(saved):
                setattr(owner, attribute, original)

    # -- reading the trace -------------------------------------------------

    def _spans(self, layer: str, phases) -> list[Span]:
        return [s for s in self.spans if s.layer == layer and s.phase in phases]

    def inclusive_s(self, layer: str, phases=("setup", "run")) -> float:
        """Wall time inside the layer, counting nested calls of it once."""
        return sum(
            (s.duration for s in self._spans(layer, phases) if s.parent is None or s.parent.layer != layer),
            0.0,
        )

    def self_s(self, layer: str, phases=("setup", "run")) -> float:
        if layer == "interaction":
            return sum(self.interaction[p][0] for p in phases if p in self.interaction)
        return sum((s.duration - s.child_s for s in self._spans(layer, phases)), 0.0)

    def count(self, counter: str, phases=("setup", "run")) -> int:
        return sum(self.counts[p, counter] for p in phases)

    def self_times(self, phase: str, by_stage: bool = False) -> dict[str, float]:
        """Self time of every layer seen in `phase`, largest first.

        With `by_stage`, the time of the layers that only run inside another
        (interaction, tree builds and applies) goes to the layer that called
        them, so gradient-boosting fit includes its tree builds and features
        includes active marking.
        """
        times = defaultdict(float)
        for span in self.spans:
            if span.phase != phase:
                continue
            owner = span
            while by_stage and owner.layer in NESTED_LAYERS and owner.parent is not None:
                owner = owner.parent
            times[owner.layer] += span.duration - span.child_s
        if phase in self.interaction:
            times["features" if by_stage else "interaction"] += self.interaction[phase][0]
        return dict(sorted(times.items(), key=lambda item: -item[1]))

    def metrics(self) -> dict[str, float]:
        """Every PER_LAYER metric. Layers sum over set-up and the workload
        command; cli.* describe the workload command alone, as run_s does."""

        def ratio(numerator: int, denominator: int) -> float:
            return numerator / denominator if denominator else 0.0

        tallies = self.interaction.values()
        _, calls, pairs, marks, active = [sum(t) for t in zip(*tallies)] if tallies else [0] * 5
        out = {
            "synthgen.generate_s": self.inclusive_s("synthgen"),
            "synthgen.records": self.count("synthgen.records"),
            "records.load_s": self.inclusive_s("records"),
            "records.lines": self.count("records.lines"),
            "records.rejected": self.count("records.rejected"),
            "interaction.mark_s": self.self_s("interaction"),
            "interaction.calls": calls,
            "interaction.pairs": pairs,
            "interaction.active_ratio": ratio(active, marks),
            "features.matrix_s": self.inclusive_s("features"),
            "features.self_s": self.self_s("features"),
            "features.rows": self.count("features.rows"),
            "features.unique_row_ratio": ratio(self.count("features.unique_rows"), self.count("features.rows")),
        }
        for kind in MODEL_KINDS:
            prefix = f"models.{kind}"
            out[f"{prefix}.fit_s"] = self.inclusive_s(prefix + ".fit")
            out[f"{prefix}.fits"] = self.count(prefix + ".fits")
            out[f"{prefix}.iterations"] = self.count(prefix + ".iterations")
            if kind in CONVERGING_KINDS:
                out[f"{prefix}.converged_ratio"] = ratio(self.count(prefix + ".converged"), self.count(prefix + ".fits"))
        out.update(
            {
                "models.predict_s": self.inclusive_s("models.predict"),
                "models.predict_rows": self.count("models.predict_rows"),
                "models.tree.build_s": self.inclusive_s("models.tree.build"),
                "models.tree.builds": self.count("models.tree.builds"),
                "models.tree.nodes": self.count("models.tree.nodes"),
                "models.tree.apply_s": self.inclusive_s("models.tree.apply"),
                "models.tree.apply_rows": self.count("models.tree.apply_rows"),
                "models.store.load_s": self.inclusive_s("models.store.load"),
                "models.store.save_s": self.inclusive_s("models.store.save"),
                "models.store.bytes": self.count("models.store.bytes"),
                "evaluation.loso_s": self.inclusive_s("evaluation"),
                "evaluation.self_s": self.self_s("evaluation"),
                "evaluation.folds": self.count("evaluation.folds"),
                "cli.total_s": self.inclusive_s("cli", ("run",)),
                "cli.self_s": self.self_s("cli", ("run",)),
                "cli.output_bytes": self.count("cli.output_bytes", ("run",)),
            }
        )
        return out


# -- hooks -----------------------------------------------------------------
# Each hook factory takes (tracer, original) and returns the wrapper.


def _spanned(layer: str, counters=None):
    """Hook factory: one span per call, then `counters(tracer, span, result, args)`."""

    def make(tracer: Tracer, original):
        def wrapper(*args, **kwargs):
            span = tracer.begin(layer)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(span)
            if counters is not None:
                counters(tracer, span, result, args)
            return result

        return wrapper

    return make


def _count_generate(tracer, span, corpus, args):
    tracer.add("synthgen.records", sum(len(s.frames) for s in corpus.segments))


def _count_records(tracer, span, loaded, args):
    assembly, diagnostics = loaded
    valid = sum(len(s.frames) for s in assembly.segments)
    tracer.add("records.lines", valid + len(diagnostics))
    tracer.add("records.rejected", len(diagnostics))


def _count_rows(tracer, span, matrix, args):
    _, keys = matrix
    config = args[2]
    before = len(tracer.row_keys)
    tracer.row_keys.update((key, config) for key in keys)
    tracer.add("features.rows", len(keys))
    tracer.add("features.unique_rows", len(tracer.row_keys) - before)


def _count_fit(tracer, span, model, args):
    prefix = f"models.{model.kind}"
    span.layer = prefix + ".fit"
    tracer.add(prefix + ".fits", 1)
    tracer.add(prefix + ".iterations", model.metadata["iterations"])
    tracer.add(prefix + ".converged", model.metadata["stopping_reason"] != "max-iterations")


def _count_nodes(tracer, span, built, args):
    tree = built[0] if isinstance(built, tuple) else built  # regression trees return leaf ids too
    tracer.add("models.tree.builds", 1)
    tracer.add("models.tree.nodes", len(tree.feature))


def _count_apply(tracer, span, leaves, args):
    tracer.add("models.tree.apply_rows", len(leaves))


def _count_predict(tracer, span, labels, args):
    tracer.add("models.predict_rows", len(labels))


def _count_model_text(tracer, span, model_or_text, args):
    text = model_or_text if isinstance(model_or_text, str) else args[0]
    tracer.add("models.store.bytes", len(text.encode("utf-8")))


def _count_folds(tracer, span, report, args):
    tracer.add("evaluation.folds", len(report.folds))


def _mark_active(tracer: Tracer, original):
    def wrapper(frame, *args, **kwargs):
        start = time.perf_counter()
        marks = original(frame, *args, **kwargs)
        elapsed = time.perf_counter() - start
        tracer._open[-1].child_s += elapsed  # always called inside a features span
        tally = tracer.interaction[tracer.phase]
        tally[0] += elapsed
        tally[1] += 1
        tally[2] += len(frame.objects) * len(frame.hoi_objects)
        tally[3] += len(marks)
        tally[4] += [m.active for m in marks].count(True)
        return marks

    return wrapper


# (module[:class], attribute, hook factory). Patched where the caller looks
# the name up, so cli and evaluation each get their own entry.
_HOOKS = [
    ("adlrec.cli", "generate", _spanned("synthgen", _count_generate)),
    ("adlrec.cli", "load_corpus", _spanned("records", _count_records)),
    ("adlrec.features", "mark_active", _mark_active),
    ("adlrec.cli", "feature_matrix", _spanned("features", _count_rows)),
    ("adlrec.evaluation", "feature_matrix", _spanned("features", _count_rows)),
    ("adlrec.cli", "train_matrix", _spanned("models.fit", _count_fit)),
    ("adlrec.evaluation", "train_matrix", _spanned("models.fit", _count_fit)),
    ("adlrec.models.boosting", "build_regression_tree", _spanned("models.tree.build", _count_nodes)),
    ("adlrec.models.forest", "build_classification_tree", _spanned("models.tree.build", _count_nodes)),
    ("adlrec.models.tree:Tree", "apply", _spanned("models.tree.apply", _count_apply)),
    ("adlrec.models:TrainedModel", "predict_labels", _spanned("models.predict", _count_predict)),
    ("adlrec.cli", "load_model", _spanned("models.store.load", _count_model_text)),
    ("adlrec.cli", "save_model", _spanned("models.store.save", _count_model_text)),
    ("adlrec.cli", "run_loso", _spanned("evaluation", _count_folds)),
    ("adlrec.evaluation", "run_loso", _spanned("evaluation", _count_folds)),
]
