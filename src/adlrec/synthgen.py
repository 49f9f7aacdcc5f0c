"""Seeded synthetic corpus generator: the desk-scale stand-in for real data.

Each activity class gets a profile of core object categories (appearing
often and usually hand-active) plus passive context categories. Participants
get per-category frequency biases, modelling individual compensatory habits
without ever touching the class-to-core assignment. A detector noise model
(drops, spurious boxes, label confusion, box jitter) turns the oracle
ground-truth stream into a detector-like stream; both streams are emitted
so noise-robustness comparisons have a clean reference.
"""

import json
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

from .documents import InputError, from_document, read_object, to_document
from .records import (
    MAX_FRAMES_PER_SEGMENT,
    Box2D,
    FrameObservation,
    HoiObject,
    ObjectDetection,
    Segment,
    SegmentKey,
)
from .rng import derive_seed, make_generator
from .taxonomy import ADL_NAMES, PAPER_CLASS_COUNTS, CategoryTable

CANVAS_W = 1280.0
CANVAS_H = 720.0

# Probability of an unmatched hand-interaction box per frame (hand in view
# without a confirmed object match); keeps the hoi channel non-degenerate.
STRAY_HOI_PROB = 0.08

# Upper bound on a spec's segments (participants x per-ADL counts): far above
# the paper's 2261 segments and the benchmark's largest corpus of 800, and low
# enough that a spec asking for 1e308 participants fails at once instead of
# generating until killed.
MAX_SEGMENTS = 1_000_000

# Strength of each participant's per-category frequency bias in the presets.
PARTICIPANT_EFFECT = 0.3

# Presence probability of another class's core object in the distractor preset.
DISTRACTOR_PROB = 0.45


class GenError(InputError):
    pass


@dataclass(frozen=True, kw_only=True)
class AdlProfile:
    """Object behaviour of one activity class, named by `adl`; a profile
    that names no class fails GenSpec.validate's canonical-order check."""

    adl: str = ""
    core: tuple[str, ...]
    core_prob: float
    context: tuple[tuple[str, float], ...]
    active_prob: float


@dataclass(frozen=True)
class NoiseSpec:
    drop_rate: float = 0.0
    spurious_rate: float = 0.0
    label_confusion_rate: float = 0.0
    box_jitter_px: float = 0.0


@dataclass(frozen=True, kw_only=True)
class GenSpec:
    """A synthetic corpus: genspec.json is this dataclass's document, with its
    fields as keys in declaration order (see `adlrec.documents`)."""

    seed: int
    participants: int
    segments_per_participant: tuple[int, ...]  # per-ADL counts, canonical order
    frames_per_segment: int
    participant_effect: float = 0.0
    noise: NoiseSpec = NoiseSpec()
    adl_profiles: tuple[AdlProfile, ...]  # one per ADL class, canonical order

    def validate(self) -> None:
        if [p.adl for p in self.adl_profiles] != list(ADL_NAMES):
            raise GenError(
                f"adl_profiles must list all {len(ADL_NAMES)} ADL classes in canonical order"
            )
        if self.participants < 1:
            raise GenError("participants must be >= 1")
        if len(self.segments_per_participant) != len(ADL_NAMES):
            raise GenError(
                f"segments_per_participant needs {len(ADL_NAMES)} per-ADL counts"
            )
        if any(c < 0 for c in self.segments_per_participant):
            raise GenError("negative segment count")
        if sum(self.segments_per_participant) == 0:
            raise GenError("spec generates zero segments")
        if self.participants * sum(self.segments_per_participant) > MAX_SEGMENTS:
            raise GenError(f"spec generates more than {MAX_SEGMENTS} segments")
        if not 1 <= self.frames_per_segment <= MAX_FRAMES_PER_SEGMENT:
            raise GenError(f"frames_per_segment must be in [1, {MAX_FRAMES_PER_SEGMENT}]")
        if not 0.0 <= self.participant_effect <= 1.0:
            raise GenError("participant_effect must be in [0, 1]")
        for profile in self.adl_profiles:
            if not profile.core:
                raise GenError("profile with empty core category set")
            probs = [profile.core_prob, profile.active_prob] + [
                p for _, p in profile.context
            ]
            if any(not 0.0 <= p <= 1.0 for p in probs):
                raise GenError("profile probability outside [0, 1]")
        for rate in (
            self.noise.drop_rate,
            self.noise.spurious_rate,
            self.noise.label_confusion_rate,
        ):
            if not 0.0 <= rate <= 1.0:
                raise GenError("noise rate outside [0, 1]")
        if self.noise.box_jitter_px < 0:
            raise GenError("box_jitter_px must be >= 0")
        if not math.isfinite(2.0 * self.noise.box_jitter_px):  # else rng.uniform(-j, j) overflows
            raise GenError("box_jitter_px must be finite and at most half the largest float")


# Core object categories per activity class; pairwise disjoint so the clean
# corpus is separable by construction.
CORE_CATEGORIES: tuple[tuple[str, ...], ...] = (
    ("drinkware", "tableware"),  # Self-Feeding
    ("wheelchair_walker", "footwear"),  # Functional Mobility
    ("toiletries", "medication", "grooming_tool"),  # Grooming & Health Management
    ("phone_tablet", "electronics"),  # Communication Management
    ("cleaning_product", "home_appliance_tool"),  # Home Management
    ("kitchen_utensils", "kitchen_appliance", "food", "sink"),  # Meal Preparation
    ("tv_computer", "toy_game", "sports_equipment"),  # Leisure & Other
)

SHARED_CONTEXT: tuple[tuple[str, float], ...] = (
    ("furniture", 0.35),
    ("furnishing", 0.30),
    ("house_fixtures", 0.40),
    ("other", 0.25),
    ("clothing", 0.15),
    ("bag", 0.10),
    ("office_stationary", 0.15),
)


def proportional_allocation(total: int) -> tuple[int, ...]:
    """Largest-remainder apportionment of `total` across PAPER_CLASS_COUNTS."""
    if total < 0:
        raise GenError("total must be >= 0")
    if total > MAX_SEGMENTS:  # before the float division below can overflow
        raise GenError(f"total must be <= {MAX_SEGMENTS}")
    weight_sum = sum(PAPER_CLASS_COUNTS)
    quotas = [total * w / weight_sum for w in PAPER_CLASS_COUNTS]
    floors = [int(q) for q in quotas]
    shortfall = total - sum(floors)
    order = sorted(range(len(quotas)), key=lambda i: (-(quotas[i] - floors[i]), i))
    for i in order[:shortfall]:
        floors[i] += 1
    return tuple(floors)


def clean_genspec(
    participants: int,
    segments_per_participant: int,
    frames_per_segment: int,
    seed: int,
    noise: NoiseSpec = NoiseSpec(),
) -> GenSpec:
    """Separable default: disjoint cores, shared passive context."""
    profiles = tuple(
        AdlProfile(adl=adl, core=core, core_prob=0.6, context=SHARED_CONTEXT, active_prob=0.9)
        for adl, core in zip(ADL_NAMES, CORE_CATEGORIES)
    )
    return GenSpec(
        seed=seed,
        participants=participants,
        segments_per_participant=proportional_allocation(segments_per_participant),
        frames_per_segment=frames_per_segment,
        adl_profiles=profiles,
        participant_effect=PARTICIPANT_EFFECT,
        noise=noise,
    )


def distractor_genspec(
    participants: int,
    segments_per_participant: int,
    frames_per_segment: int,
    seed: int,
    noise: NoiseSpec = NoiseSpec(),
) -> GenSpec:
    """Ablation-trend corpus: other classes' core objects appear passively.

    Presence alone is then ambiguous across classes while the hand-active
    channel stays clean, giving the active-object distinction something
    real to contribute.
    """
    spec = clean_genspec(participants, segments_per_participant, frames_per_segment, seed, noise)
    profiles = tuple(
        replace(profile, core_prob=0.7, context=profile.context + tuple(
            (cat, DISTRACTOR_PROB)
            for other in spec.adl_profiles if other.adl != profile.adl
            for cat in other.core
        ))
        for profile in spec.adl_profiles
    )
    return replace(spec, adl_profiles=profiles)


# Every uniform is drawn as rng.uniform(low, high) computes it, low + (high -
# low) * u from the double u of the generator's random(), bound once per
# segment and passed as `random`: the same values and stream position as
# rng.uniform, without its scalar wrapper's cost.


def _random_box(random) -> Box2D:
    # one call for four doubles (low = 0 adds nothing to a non-negative product)
    u = random(4).tolist()
    w = 40.0 + 200.0 * u[0]
    h = 40.0 + 200.0 * u[1]
    x1 = (CANVAS_W - w) * u[2]
    y1 = (CANVAS_H - h) * u[3]
    return Box2D(x1, y1, x1 + w, y1 + h)


def _raw_labels_by_category(table: CategoryTable) -> dict[str, list[str]]:
    by_cat: dict[str, list[str]] = {cat: [] for cat in table.categories}
    for raw, cat in sorted(table.raw_map.items()):
        by_cat[cat].append(raw)
    return {cat: raws or [cat] for cat, raws in by_cat.items()}


def _participant_bias(spec: GenSpec, participant_id: str, table: CategoryTable) -> dict[str, float]:
    rng = make_generator(spec.seed, "bias", participant_id)
    draws = rng.uniform(-1.0, 1.0, size=len(table.categories))
    return {
        cat: 1.0 + spec.participant_effect * draws[i]
        for i, cat in enumerate(table.categories)
    }


def _hoi(random, integers, box: Box2D, contact_state: str, low: float, high: float) -> HoiObject:
    side = "left" if integers(0, 2) == 0 else "right"
    return HoiObject(box, side, contact_state, low + (high - low) * random())


def _generate_segment(
    spec: GenSpec,
    key: SegmentKey,
    adl_id: int,
    bias: dict[str, float],
    raws_by_cat: dict[str, list[str]],
) -> Segment:
    rng = make_generator(spec.seed, "segment", *key)
    random, integers = rng.random, rng.integers
    profile = spec.adl_profiles[adl_id]
    # (category, presence probability, contact probability or None), core
    # objects first: a core object draws its contact uniform even when the
    # probability is 0, a context object never draws one
    draws = [(cat, profile.core_prob, profile.active_prob) for cat in profile.core]
    draws += [(cat, p, None) for cat, p in profile.context]
    # the participant's bias scales each presence probability, once per segment
    draws = [(raws_by_cat[cat], min(1.0, max(0.0, p * bias[cat])), c) for cat, p, c in draws]
    frames = []
    for frame_index in range(spec.frames_per_segment):
        objects: list[ObjectDetection] = []
        hoi: list[HoiObject] = []
        for raw_labels, p, contact_prob in draws:
            if random() < p:
                # drawn box, label, score: another order gives another corpus
                box = _random_box(random)
                label = raw_labels[int(integers(0, len(raw_labels)))]
                objects.append(ObjectDetection(label, 0.5 + (1.0 - 0.5) * random(), box))
                if contact_prob is not None and random() < contact_prob:
                    # in-contact box coincides with the detection: IoU 1
                    hoi.append(_hoi(random, integers, box, "portable_object", 0.5, 1.0))
        if random() < STRAY_HOI_PROB:
            hoi.append(_hoi(random, integers, _random_box(random), "stationary_object", 0.3, 0.9))
        frames.append(FrameObservation(frame_index, tuple(objects), tuple(hoi)))
    return Segment(key, tuple(frames), adl_id)


def _jitter_box(random, box: Box2D, jitter: float) -> Box2D:
    # rng.uniform(-jitter, jitter, size=4), whose high - low is 2 * jitter exactly
    d0, d1, d2, d3 = (-jitter + 2.0 * jitter * u for u in random(4).tolist())
    x_lo, x_hi = sorted((box.x1 + d0, box.x2 + d1))
    y_lo, y_hi = sorted((box.y1 + d2, box.y2 + d3))
    if x_hi - x_lo < 1.0:
        x_hi = x_lo + 1.0
    if y_hi - y_lo < 1.0:
        y_hi = y_lo + 1.0
    return Box2D(x_lo, y_lo, x_hi, y_hi)


def perturb(
    segments: list[Segment], noise: NoiseSpec, seed: int, table: CategoryTable
) -> list[Segment]:
    """Apply the detector noise model; hoi boxes pass through untouched.

    With no noise (`NoiseSpec()`) this is `segments` itself: the per-segment
    "perturb" streams feed no other draw, so skipping them changes nothing.
    """
    if noise == NoiseSpec():
        return segments
    out = []
    for segment in segments:
        rng = make_generator(seed, "perturb", *segment.key)
        random = rng.random
        frames = []
        for frame in segment.frames:
            objects: list[ObjectDetection] = []
            for raw_label, score, box in frame.objects:
                if random() < noise.drop_rate:
                    continue
                if random() < noise.label_confusion_rate:
                    current = table.categories[table.map_label(raw_label)]
                    others = [c for c in table.categories if c != current]
                    raw_label = others[int(rng.integers(0, len(others)))]
                if noise.box_jitter_px > 0:
                    box = _jitter_box(random, box, noise.box_jitter_px)
                objects.append(ObjectDetection(raw_label, score, box))
            if noise.spurious_rate > 0:
                for _ in range(int(rng.poisson(noise.spurious_rate))):
                    # drawn label, score, box: another order gives another corpus
                    label = table.categories[int(rng.integers(0, len(table.categories)))]
                    score = 0.05 + (0.95 - 0.05) * random()
                    objects.append(ObjectDetection(label, score, _random_box(random)))
            frames.append(FrameObservation(frame.frame_index, tuple(objects), frame.hoi_objects))
        out.append(Segment(segment.key, tuple(frames), segment.label))
    return out


class GeneratedCorpus(NamedTuple):
    truth_segments: list[Segment]
    segments: list[Segment]  # after the noise model; truth_segments itself without noise


def check_spec(spec: GenSpec, table: CategoryTable) -> None:
    """Raise GenError unless `spec` is valid and names only categories of `table`."""
    spec.validate()
    if spec.noise.label_confusion_rate > 0 and len(table.categories) < 2:
        # a confused label is redrawn from the other categories
        raise GenError("label_confusion_rate > 0 needs a category table of at least 2 categories")
    for profile in spec.adl_profiles:
        for cat in list(profile.core) + [c for c, _ in profile.context]:
            if cat not in table.categories:
                raise GenError(f"profile references unknown category {cat!r}")


def generate(spec: GenSpec, table: CategoryTable, participants=None) -> GeneratedCorpus:
    """Emit the detector-like and oracle streams of every participant, or of
    the `participants` given (indices, in that order). Every draw comes from a
    stream keyed by its participant, so those segments are the same in any subset."""
    check_spec(spec, table)
    raws_by_cat = _raw_labels_by_category(table)
    pad = max(2, len(str(spec.participants)))
    truth: list[Segment] = []
    for p in range(spec.participants) if participants is None else participants:
        participant_id = f"p{p + 1:0{pad}d}"
        bias = _participant_bias(spec, participant_id, table)
        for adl_id, n_segments in enumerate(spec.segments_per_participant):
            for segment_index in range(n_segments):
                key = SegmentKey(participant_id, f"v{adl_id + 1:02d}", segment_index)
                truth.append(_generate_segment(spec, key, adl_id, bias, raws_by_cat))
    noisy = perturb(truth, spec.noise, derive_seed(spec.seed, "noise"), table)
    return GeneratedCorpus(truth_segments=truth, segments=noisy)


def genspec_to_json(spec: GenSpec) -> str:
    return json.dumps(to_document(spec), indent=2, sort_keys=False)


def genspec_from_json(text: str) -> GenSpec:
    doc = read_object(text, GenError, "generator spec parse failure")
    try:
        spec = from_document(GenSpec, doc)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise GenError(f"invalid generator spec: {exc}") from None
    spec.validate()
    return spec
