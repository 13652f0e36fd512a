"""The workloads, and the requests each one sends.

Every input is a pure function of ``(workload, seed)``: arrival times,
images, labels, attack choice and attack seeds all come from
``numpy.random.default_rng([seed, stream, index])``, so the same seed
replays the same traffic on any commit and a request's content never
depends on how many requests came before it in a run.  Why each
workload exists is recorded in ``BENCHMARK.json`` and ``README.md``.
"""

from __future__ import annotations

import functools
import json
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

#: Independent random streams of one workload seed.
_ARRIVALS, _OPEN, _CLOSED, _POOL, _WARM, _REPLAY, _REPLAY_IMAGES = range(7)

#: Attackable requests sent after the measured phases of every serve run,
#: whose served results are compared in full with direct runs.
REPLAY_REQUESTS = 8
#: Where a replay image sits on the path from a solid colour to a random
#: image: this share of the path short of where the model's decision
#: changes.  Closer, every attack wins at its first query; farther, the
#: fixed sketch stops winning within the budget.
REPLAY_BACKOFF = 0.25

#: Attacks whose wire spec takes a ``params.seed``.
_SEEDED = ("random", "su-opa", "sparse-rs")


@dataclass(frozen=True)
class ServeWorkload:
    """Traffic against a served model (single process or cluster)."""

    name: str
    #: The server CLI after ``python -m``; ``--port`` is appended.
    module_argv: Tuple[str, ...]
    #: ``repro.serve.server.ServeConfig`` fields of the served model,
    #: used to build the same classifier in the harness (labels and the
    #: direct-replay correctness reference).
    model: Dict
    attacks: Tuple[str, ...]
    budget: int
    #: Sessions per second the server completes in the closed phase
    #: (``attacks_per_s``) at this budget, measured at the commit that
    #: added this benchmark; the open phase offers :data:`LOAD` of it.
    capacity: float
    #: ``None`` draws a fresh image per request; ``N`` draws from a pool
    #: of ``N`` images with Zipf(``zipf``) popularity.
    pool: Optional[int] = None
    zipf: float = 1.3
    clients: int = 32
    closed_sessions: int = 8
    #: Sessions submitted at once before measuring: enough to occupy
    #: every session thread of every worker (16 each), so every thread
    #: has started and allocated, and peak memory does not depend on how
    #: bursty the measured arrivals happened to be.
    warm_up: int = 16
    cluster: bool = False

    @property
    def open_rate(self) -> float:
        """Poisson arrivals per second in the open phase."""
        return LOAD * self.capacity


@dataclass(frozen=True)
class PipelineWorkload:
    """The paper's own loop: train-once model, OPPSLA synthesis, attacks."""

    name: str
    arch: str = "vgg16bn"
    image_size: int = 8
    train_per_class: int = 60
    epochs: int = 4
    train_pairs: int = 12
    per_image_budget: int = 256
    beta: float = 0.01
    chain_iterations: int = 30
    attack_budget: int = 128


_TOY = {"model": "toy", "height": 8, "width": 8, "num_classes": 4, "seed": 0}

#: Share of its closed-phase capacity a serve workload's open phase
#: offers.  At 0.5, ``serve_cnn``'s p90 (budget 32) spread 27% and 12% in
#: two ten-seed sets, the first more than the largest bound the benchmark
#: format allows; at 0.3, 11%, 14% and 18% in three.
LOAD = 0.3

# Budgets start from 128 on GoogLeNet and 256 on the toy model and are
# halved until a 26-second run's open phase holds enough sessions at LOAD
# for its latencies to repeat.  Capacity in sessions per second, the open
# phase's sessions, and the worst latency spread of ten-seed sets:
#   serve_cnn       128: 13.8,  81  too few for a p90
#                    64: 27.5, 161  p90 21%
#                    32: 39.0, 228  p90 14% and 18% (two sets)
#   cluster_shared  256: 17.9, 105  too few
#                   128: 27.9, 163  p90 8% and 8%
# serve_toy sends the cluster's requests, budget included (at 256 it
# completes 37.5 sessions/s and its p50 spread 15%; at 128, 9% and 16%).
WORKLOADS = {
    w.name: w
    for w in (
        ServeWorkload(
            name="serve_cnn",
            module_argv=(
                "repro.serve", "--model", "googlenet", "--height", "16",
                "--width", "16", "--classes", "10", "--freeze",
                "--dtype", "float32",
            ),
            model={
                "model": "googlenet", "height": 16, "width": 16,
                "num_classes": 10, "seed": 0, "freeze": True,
                "dtype": "float32",
            },
            attacks=("fixed", "random", "su-opa"),
            budget=32,
            capacity=39.0,
        ),
        ServeWorkload(
            name="serve_toy",
            module_argv=("repro.serve",),
            model=_TOY,
            attacks=("fixed", "random", "su-opa", "sparse-rs"),
            budget=128,
            capacity=67.1,
            pool=48,
        ),
        PipelineWorkload(name="paper_pipeline"),
        ServeWorkload(
            name="cluster_shared",
            module_argv=(
                "repro.cli", "cluster", "--workers", "2", "--shared-cache",
                "--latency", "0.0005",
            ),
            model=_TOY,
            attacks=("fixed", "random", "su-opa", "sparse-rs"),
            budget=128,
            capacity=27.9,
            pool=48,
            warm_up=32,
            cluster=True,
        ),
    )
}

#: Share of ``--seconds`` given to the open phase of a serve workload;
#: the closed phase gets the rest.
OPEN_SHARE = 0.75


def server_argv(workload: ServeWorkload, port: int) -> List[str]:
    return [sys.executable, "-m", *workload.module_argv, "--port", str(port)]


def rng(seed: int, stream: int, index: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, stream, index])


def arrival_offsets(rate: float, count: int, seed: int) -> List[float]:
    """Seconds after phase start of ``count`` Poisson arrivals at ``rate``.

    The gaps between arrivals are exponential at ``rate``, drawn by Latin
    hypercube sampling: each gap is the exponential quantile of a uniform
    draw from a stratum of its own, ``1/count`` wide, and the seed draws
    the point within each stratum and the order of the gaps.  Each gap is
    still Exp(rate), but every seed gets the same mix of short and long
    gaps, so about the same share of sessions arrive on another's heels --
    what the latency tail of a lightly loaded server depends on.  With
    independent gaps that share varies from seed to seed, and in a
    simulated single-lock server at ``serve_cnn``'s load and session
    count the quartile spread of the p90 over seeds was 9.2% against 6.6%
    with stratified gaps.  The gaps are scaled to sum to ``count / rate``,
    so every seed offers the same load; the first arrival is at 0.
    """
    draw = rng(seed, _ARRIVALS)
    strata = (draw.permutation(count) + draw.random(count)) / count
    gaps = -np.log1p(-strata)
    gaps *= (count / rate) / gaps.sum()
    return np.concatenate(([0.0], np.cumsum(gaps[:-1]))).tolist()


def open_count(workload: ServeWorkload, seconds: float) -> int:
    return int(round(workload.open_rate * seconds * OPEN_SHARE))


@dataclass
class Request:
    """One attack submission: its wire body plus what replay needs."""

    index: int
    attack: str
    params: Dict
    image: np.ndarray
    true_class: Optional[int]
    budget: int
    client: str

    @functools.cached_property
    def body(self) -> bytes:
        spec = {
            "attack": self.attack,
            "image": self.image.tolist(),
            "true_class": self.true_class,
            "budget": self.budget,
            "params": self.params,
        }
        return json.dumps(spec).encode("utf-8")


def image_pool(workload: ServeWorkload, classifier):
    """The Zipf-weighted image pool ``(images, labels, weights)``, or ``None``.

    The pool is the same for every seed, and holds the first generated
    images that the fixed-prioritization sketch cannot break even by
    exhausting its whole pixel-corner space.  Under Zipf(1.3) a third of
    the requests carry the most popular image, so a per-seed pool, or
    one mixing easy and hard images, would let the seed decide whether
    the p90 session spends its whole budget or one query.  With this
    pool every session spends its budget (SU-OPA and Sparse-RS, which
    search all colours, rarely succeed), so a session's cost depends on
    its attack, and the seed draws which image and attack each request
    carries.
    """
    if workload.pool is None:
        return None
    from repro.attacks.fixed_sketch import FixedSketchAttack

    shape = (workload.model["height"], workload.model["width"], 3)
    images, labels = [], []
    candidate = 0
    while len(images) < workload.pool:
        image = rng(0, _POOL, candidate).random(shape)
        candidate += 1
        label = int(np.argmax(classifier(image)))
        if not FixedSketchAttack().attack(classifier, image, label).success:
            images.append(image)
            labels.append(label)
    weights = np.arange(1, workload.pool + 1, dtype=np.float64) ** -workload.zipf
    return images, labels, weights / weights.sum()


def _near_boundary(classifier, shape, draw) -> Optional[np.ndarray]:
    """An image :data:`REPLAY_BACKOFF` short of a decision boundary.

    Bisects the straight path from a solid colour to a random image the
    model labels differently, and steps back toward the colour; ``None``
    when no drawn colour is labelled differently.
    """
    target = draw.random(shape)
    label = int(np.argmax(classifier(target)))
    for _ in range(64):
        colour = np.ones(shape) * draw.random(3)
        if int(np.argmax(classifier(colour))) != label:
            break
    else:
        return None
    low, high = 0.0, 1.0  # the colour's label holds at ``low``
    for _ in range(30):
        middle = (low + high) / 2
        if int(np.argmax(classifier(colour + middle * (target - colour)))) == label:
            high = middle
        else:
            low = middle
    return colour + max(low - REPLAY_BACKOFF, 0.0) * (target - colour)


def _replay_images(workload: ServeWorkload, classifier) -> List[Tuple[np.ndarray, int]]:
    from repro.attacks.fixed_sketch import FixedSketchAttack

    shape = (workload.model["height"], workload.model["width"], 3)
    found = []
    candidate = 0
    while len(found) < REPLAY_REQUESTS:
        image = _near_boundary(classifier, shape, rng(0, _REPLAY_IMAGES, candidate))
        candidate += 1
        if image is None:
            continue
        label = int(np.argmax(classifier(image)))
        if FixedSketchAttack().attack(classifier, image, label, budget=workload.budget).success:
            found.append((image, label))
    return found


def replay_requests(workload: ServeWorkload, seed: int, classifier) -> List["Request"]:
    """The replay requests of one run: fixed attackable images.

    The images are the same for every seed: each sits near a decision
    boundary of the served model, and the fixed-prioritization sketch
    breaks it within the budget, so these sessions take the paths the
    measured traffic never does -- a success, an early stop, a
    perturbation and an adversarial class to compare.  The attack mix is
    exact; the attack seeds come from ``seed``.
    """
    requests = []
    for index, (image, label) in enumerate(_replay_images(workload, classifier)):
        attack = workload.attacks[index % len(workload.attacks)]
        draw = rng(seed, _REPLAY, index)
        requests.append(
            Request(
                index=index,
                attack=attack,
                params={"seed": int(draw.integers(2**16))} if attack in _SEEDED else {},
                image=image,
                true_class=label,
                budget=workload.budget,
                client="replay",
            )
        )
    return requests


class RequestSource:
    """The requests of one stream, generated on demand by index.

    Labels are the served model's own prediction (the untargeted threat
    model: an attack succeeds when the decision changes), so the source
    needs the same classifier the server builds.
    """

    def __init__(self, workload: ServeWorkload, seed: int, stream: int, classifier, pool):
        self.workload = workload
        self.seed = seed
        self.stream = stream
        self.classifier = classifier
        self.pool = pool
        self._made: Dict[int, Request] = {}

    def prefetch(self, count: int) -> List[Request]:
        """Requests ``0 .. count-1``, labelled in one batched forward.

        Generating them during a phase would put model forwards and JSON
        encoding in the load generator, on the cores the server uses.
        """
        drafts = [self._draft(index) for index in range(len(self._made), count)]
        fresh = [draft for draft in drafts if draft.true_class is None]
        if fresh:
            from repro.classifier.blackbox import batch_scores

            scores = batch_scores(self.classifier, np.stack([d.image for d in fresh]))
            for draft, row in zip(fresh, scores):
                draft.true_class = int(np.argmax(row))
        for draft in drafts:
            draft.body  # encode now, not at submission time
            self._made[draft.index] = draft
        return [self._made[index] for index in range(count)]

    def __call__(self, index: int) -> Request:
        if index not in self._made:
            self.prefetch(index + 1)
        return self._made[index]

    def _draft(self, index: int) -> Request:
        """Request ``index``; ``true_class`` is ``None`` for a fresh image."""
        workload = self.workload
        draw = rng(self.seed, self.stream, index)
        # The attack mix is exact rather than drawn: sessions of different
        # attacks differ in cost by up to 50x, and a drawn mix moves the
        # share of the slowest one by a tenth between seeds.
        attack = workload.attacks[index % len(workload.attacks)]
        params = {"seed": int(draw.integers(2**16))} if attack in _SEEDED else {}
        if self.pool is not None:
            images, labels, weights = self.pool
            slot = int(draw.choice(len(images), p=weights))
            image, label = images[slot], labels[slot]
        else:
            shape = (workload.model["height"], workload.model["width"], 3)
            image, label = draw.random(shape), None
        return Request(
            index=index,
            attack=attack,
            params=params,
            image=image,
            true_class=label,
            budget=workload.budget,
            client=f"client-{int(draw.integers(workload.clients))}",
        )


def sources(workload: ServeWorkload, seed: int, classifier):
    """The warm-up, open-phase and closed-phase request streams."""
    pool = image_pool(workload, classifier)
    return tuple(
        RequestSource(workload, seed, stream, classifier, pool)
        for stream in (_WARM, _OPEN, _CLOSED)
    )
