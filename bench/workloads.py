"""Benchmark workloads: seeded synthgen corpora and the CLI arguments run on them.

Every input is a pure function of the workload and the seed. Per-scene
object counts are a seeded permutation of a fixed multiset, so the corpus
size, and with it the run time, does not drift from seed to seed; only
positions, velocities, misses, noise and false positives change.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from criteval import model, synthgen
from criteval.model import Vec2
from criteval.synthgen import ErrorModel, ScenarioObject, ScenarioSpec, SplitMix64

DEFAULT_SEED = 0

# The two detectors of tests/helpers.py:sweep_dataset_and_detectors; the
# dense corpus keeps their miss/noise profiles and raises the FP rate.
FARBLIND = dict(miss_prob_by_distance=[(25.0, 0.05), (50.0, 0.5)],
                center_noise_sigma=0.25, velocity_noise_sigma=0.3)
NEARBLIND = dict(miss_prob_by_distance=[(15.0, 0.35), (50.0, 0.05)],
                 center_noise_sigma=0.35, velocity_noise_sigma=0.4)


@dataclass(frozen=True)
class Corpus:
    """Shape of a generated corpus. ``objects`` is the per-scene count range."""

    scenes: int
    frames_per_scene: int
    objects: tuple[int, int]
    speed: float
    ego_speed: float
    unknown_share: float
    detectors: dict[str, ErrorModel]


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    corpus: Corpus
    detectors: tuple[str, ...]
    args: tuple[str, ...]
    grid: dict[str, list[float]] | None = None


TEST_CORPUS = Corpus(
    scenes=10, frames_per_scene=20, objects=(10, 14), speed=2.5, ego_speed=2.0,
    unknown_share=0.1,
    detectors={
        "farblind": ErrorModel(**FARBLIND, fp_rate_per_frame=0.4),
        "nearblind": ErrorModel(**NEARBLIND, fp_rate_per_frame=0.6),
    },
)

DENSE_CORPUS = Corpus(
    scenes=12, frames_per_scene=20, objects=(55, 64), speed=8.0, ego_speed=4.0,
    unknown_share=0.1,
    detectors={
        "farblind": ErrorModel(**FARBLIND, fp_rate_per_frame=140.0),
        "nearblind": ErrorModel(**NEARBLIND, fp_rate_per_frame=140.0),
    },
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sweep_grid",
            command="sweep",
            corpus=TEST_CORPUS,
            detectors=("farblind", "nearblind"),
            args=("--grid", "default", "--ap-style", "paper"),
        ),
        Workload(
            name="evaluate_dense",
            command="evaluate",
            corpus=DENSE_CORPUS,
            detectors=("farblind",),
            args=("--dmax", "20", "--rmax", "20", "--tmax", "8"),
        ),
        Workload(
            name="sweep_dense",
            command="sweep",
            corpus=DENSE_CORPUS,
            detectors=("farblind", "nearblind"),
            args=("--dist-limits", "2", "--ap-style", "devkit"),
            grid={
                "d_values": [10.0, 20.0, 30.0, 40.0, 50.0],
                "r_values": [5.0, 10.0, 20.0, 30.0, 50.0],
                "t_values": [2.0, 4.0, 6.0, 8.0, 12.0, 20.0],
            },
        ),
    )
}


def _permutation(rng: SplitMix64, n: int) -> list[int]:
    """Seeded Fisher-Yates shuffle of range(n)."""
    out = list(range(n))
    for i in range(n - 1, 0, -1):
        j = int(rng.uniform() * (i + 1))
        out[i], out[j] = out[j], out[i]
    return out


def gen_corpus(
    corpus: Corpus, seed: int, detectors: tuple[str, ...]
) -> tuple[model.Dataset, dict[str, list[model.Detection]]]:
    """Ground truth plus the detections of the named detectors of ``corpus``.

    A detector's seed depends only on its rank among the corpus detectors, so
    its detections are the same whichever others are generated with it.
    """
    rng = SplitMix64(seed)
    lo, hi = corpus.objects
    counts = [lo + p % (hi - lo + 1) for p in _permutation(rng, corpus.scenes)]
    frames = []
    for s, n_objects in enumerate(counts):
        scene_seed = seed * 1000 + s
        srng = SplitMix64(scene_seed)
        unknown = set(_permutation(srng, n_objects)[: round(corpus.unknown_share * n_objects)])
        objects = []
        for i in range(n_objects):
            start = Vec2(srng.uniform() * 88.0 - 44.0, srng.uniform() * 88.0 - 44.0)
            velocity = None if i in unknown else Vec2(
                (2.0 * srng.uniform() - 1.0) * corpus.speed,
                (2.0 * srng.uniform() - 1.0) * corpus.speed,
            )
            objects.append(ScenarioObject(start=start, velocity=velocity))
        spec = ScenarioSpec(
            n_frames=corpus.frames_per_scene,
            ego_start=Vec2(0.0, 0.0),
            ego_velocity=Vec2((2.0 * srng.uniform() - 1.0) * corpus.ego_speed,
                              (2.0 * srng.uniform() - 1.0) * corpus.ego_speed),
            objects=objects,
            seed=scene_seed,
            frame_prefix=f"s{s:02d}_f",
        )
        frames.extend(synthgen.gen_dataset(spec).frames)
    dataset = model.Dataset(frames=frames, meta={"generator": "bench", "seed": seed})
    return dataset, {
        name: synthgen.corrupt(dataset, corpus.detectors[name], seed=seed * 1000 + 600 + i)
        for i, name in enumerate(sorted(corpus.detectors))
        if name in detectors
    }


def corpus_stats(dataset: model.Dataset, detections: dict[str, list[model.Detection]]) -> dict:
    gt = [g for f in dataset.frames for g in f.ground_truth]
    return {
        "frames": len(dataset.frames),
        "gt": len(gt),
        "unknown_velocity_share": sum(g.velocity is None for g in gt) / max(1, len(gt)),
        "detections": {name: len(d) for name, d in detections.items()},
        "distinct_confidences": {
            name: len({x.confidence for x in d}) for name, d in detections.items()
        },
    }


def write_inputs(workload: Workload, seed: int, directory: Path) -> dict:
    """Write gt.json, one JSON per detector and the grid file; return corpus stats."""
    directory.mkdir(parents=True, exist_ok=True)
    dataset, detections = gen_corpus(workload.corpus, seed, workload.detectors)
    model.dump_json(model.dataset_to_dict(dataset), directory / "gt.json")
    for name, dets in detections.items():
        model.dump_json(model.detections_to_dict(dets), directory / f"{name}.json")
    if workload.grid is not None:
        (directory / "grid.json").write_text(json.dumps(workload.grid, indent=2) + "\n")
    return corpus_stats(dataset, detections)


def cli_args(workload: Workload, inputs: Path, out: Path) -> list[str]:
    """Arguments of the ``criteval`` invocation the workload times."""
    args = [workload.command, "--gt", str(inputs / "gt.json")]
    if workload.command == "evaluate":
        args += ["--pred", str(inputs / f"{workload.detectors[0]}.json")]
    else:
        args += [arg for name in workload.detectors
                 for arg in ("--pred", f"{name}={inputs / f'{name}.json'}")]
    if workload.grid is not None:
        args += ["--grid", str(inputs / "grid.json")]
    return args + list(workload.args) + ["--out", str(out)]

