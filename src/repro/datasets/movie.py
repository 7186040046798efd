"""The end-to-end movie dataset (§5).

"The dataset was created by extracting 211 stills at one second intervals
from a three-minute movie; actor profile photos came from the Web."

Cardinalities are tuned to reproduce Table 5's HIT arithmetic:

* 211 scene stills, 5 actors;
* the ``numInScene`` feature passes 117 scenes (selectivity ≈ 55%);
* 55 scenes truly match an actor (main focus), skewed [30, 12, 7, 4, 2]
  across actors — the frame counts that drive the ORDER BY HIT totals;
* scene ``quality`` is highly subjective (Rate ≈ Compare, §5.2).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crowd.truth import FeatureTruth, GroundTruth
from repro.relational.expressions import UNKNOWN
from repro.relational.schema import Schema
from repro.relational.table import Table
from repro.util.rng import RandomSource

JOIN_TASK = "inScene"
FILTER_TASK = "numInScene"
SORT_TASK = "quality"

SCENE_COUNT = 211
ACTOR_COUNT = 5
SINGLE_PERSON_SCENES = 117
MATCHES_PER_ACTOR = (30, 12, 7, 4, 2)

TASK_DSL = """
TASK numInScene(field) TYPE Generative:
    Prompt: "<table><tr><td><img src='%s'></td>\\
        <td>How many people are in this scene?</td></tr></table>", tuple[field]
    Response: Radio("Number of people", [0, 1, 2, 3, UNKNOWN])
    Combiner: MajorityVote

TASK inScene(f1, f2) TYPE EquiJoin:
    SingularName: "actor"
    PluralName: "actors"
    LeftPreview: "<img src='%s' class=smImg>", tuple1[f1]
    LeftNormal: "<img src='%s' class=lgImg>", tuple1[f1]
    RightPreview: "<img src='%s' class=smImg>", tuple2[f2]
    RightNormal: "<img src='%s' class=lgImg>", tuple2[f2]
    Combiner: MajorityVote

TASK quality(field) TYPE Rank:
    SingularName: "scene"
    PluralName: "scenes"
    OrderDimensionName: "how flattering the scene is"
    LeastName: "least flattering"
    MostName: "most flattering"
    Html: "<img src='%s' class=lgImg>", tuple[field]
"""

QUALITY_COMPARISON_AMBIGUITY = 4.0
QUALITY_RATING_AMBIGUITY = 4.2
"""'the scene quality operator had high variance and was quite subjective;
in such cases Rate works just as well as Compare' (§5.2)."""


@dataclass
class MovieDataset:
    """Both tables + oracle + DSL + the ground-truth assignment."""

    actors: Table
    scenes: Table
    truth: GroundTruth
    task_dsl: str
    matches: list[tuple[str, str]]
    """(actor ref, scene ref) pairs where the actor is the scene's focus."""

    num_in_scene: dict[str, int]
    """scene ref → true number of people."""

    @property
    def actor_refs(self) -> list[str]:
        """Actor image refs in row order."""
        return [str(row["img"]) for row in self.actors]

    @property
    def scene_refs(self) -> list[str]:
        """Scene image refs in row order."""
        return [str(row["img"]) for row in self.scenes]

    @property
    def single_person_scenes(self) -> list[str]:
        """Scene refs with exactly one person (the feature-filter survivors)."""
        return [ref for ref, count in self.num_in_scene.items() if count == 1]


def movie_dataset(seed: int = 0, scale: int = 1) -> MovieDataset:
    """Build the 211-scene, 5-actor end-to-end dataset.

    ``scale`` multiplies the scene-side cardinalities (scene count,
    single-person scenes, matches per actor) for scaled-up performance
    runs; ``scale=1`` reproduces the paper's Table 5 dataset exactly,
    including the RNG stream consumed while building it.
    """
    if scale < 1:
        raise ValueError(f"scale must be >= 1, got {scale}")
    scene_count = SCENE_COUNT * scale
    single_person_scenes = SINGLE_PERSON_SCENES * scale
    matches_per_actor = tuple(count * scale for count in MATCHES_PER_ACTOR)
    rng = RandomSource(seed).child("movie")
    actors = Table("actors", Schema.of("name text", "img url"))
    scenes = Table("scenes", Schema.of("id integer", "img url"))
    truth = GroundTruth()

    actor_refs = [f"img://actor/{i}" for i in range(ACTOR_COUNT)]
    actors.extend(
        {"name": f"actor-{i}", "img": ref} for i, ref in enumerate(actor_refs)
    )

    # Assign people counts: 117·scale single-person scenes, the rest 0/2/3.
    scene_refs = [f"img://scene/{i:03d}" for i in range(scene_count)]
    num_in_scene: dict[str, int] = {}
    multi_counts = [0, 2, 3]
    for index, ref in enumerate(scene_refs):
        if index < single_person_scenes:
            num_in_scene[ref] = 1
        else:
            num_in_scene[ref] = multi_counts[index % len(multi_counts)]
    # Shuffle so single-person scenes are not a prefix of the movie.
    shuffled = rng.shuffled(scene_refs)
    num_in_scene = {ref: num_in_scene[scene_refs[i]] for i, ref in enumerate(shuffled)}
    scene_refs = shuffled
    scenes.extend(
        {"id": index, "img": ref} for index, ref in enumerate(sorted(scene_refs))
    )

    # Among single-person scenes, assign the skewed actor matches.
    singles = [ref for ref in scene_refs if num_in_scene[ref] == 1]
    matches: list[tuple[str, str]] = []
    cursor = 0
    for actor_index, count in enumerate(matches_per_actor):
        for _ in range(count):
            matches.append((actor_refs[actor_index], singles[cursor]))
            cursor += 1
    # Remaining single-person scenes show non-principal people: no match.

    truth.add_join_task(JOIN_TASK, set(matches))
    truth.add_feature_task(
        FILTER_TASK,
        "value",
        FeatureTruth(
            values=dict(num_in_scene),
            options=(0, 1, 2, 3, UNKNOWN),
            # 'The numInScene task was very accurate' (§5.2).
            confusion={
                0: {0: 0.97, 1: 0.03},
                1: {1: 0.96, 2: 0.03, 0: 0.01},
                2: {2: 0.92, 1: 0.04, 3: 0.04},
                3: {3: 0.93, 2: 0.07},
            },
        ),
    )
    quality_latents = {ref: rng.random() for ref in scene_refs}
    truth.add_rank_task(
        SORT_TASK,
        quality_latents,
        comparison_ambiguity=QUALITY_COMPARISON_AMBIGUITY,
        rating_ambiguity=QUALITY_RATING_AMBIGUITY,
    )
    return MovieDataset(
        actors=actors,
        scenes=scenes,
        truth=truth,
        task_dsl=TASK_DSL,
        matches=matches,
        num_in_scene=num_in_scene,
    )
