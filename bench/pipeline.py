"""The ``paper_pipeline`` workload: the library path the paper measures.

A vgg16bn trained once per checkout on the synthetic CIFAR-like set
(cached under ``.bench_build/zoo``, like a build artefact) is loaded and
its attackable training pairs are screened.  OPPSLA then synthesizes
programs in 30-iteration Metropolis-Hastings chains; after each chain
``attack_dataset`` runs the first chain's best program and Sparse-RS on
the next share of the held-out images.  No serving layer is involved:
every query is a scalar, unbatched, uncached float64 forward.

The synthesis task and the held-out images are the same whatever
``--seed`` says; the seed drives Sparse-RS, one seed per image, and the
sample of attacks the correctness gate re-runs.  The cost of an MH
iteration depends on which programs a chain happens to visit, and a
quarter of the held-out images are not one-pixel attackable at all, so
seed-dependent chains or images move the rates by 10% between seeds --
more than the changes the benchmark exists to see.

Every time reported is at nominal host speed (:class:`measure.HostSpeed`):
a reference probe follows each candidate evaluation, each attack and
each set-up, and the work is all CPU on this one thread.
"""

from __future__ import annotations

import statistics
from typing import List

import numpy as np

import workloads
from measure import (
    SETUP_PROBES,
    SETUPS,
    WORK,
    HostSpeed,
    RunResult,
    fingerprint,
    outcome,
    peak_rss_mb,
    percentile,
)
from tracing import ModelProfiler, TimedClassifier, Tracer, nn_shares, span_cost

#: Work per measured second: 26 s give four 30-iteration chains (~124
#: candidate evaluations, enough for a p90) and 83 held-out images
#: attacked by both attacks.  Fixed work, not a time limit, so both
#: commits of a comparison run exactly the same chains and attacks.  It
#: takes ~21 s at nominal host speed, so that the run takes about its
#: seconds when the host runs a fifth slower than nominal, as it did for
#: hours while this was built (five chains and 104 images took 30-45 s).
CHAINS_PER_SECOND = 0.16
IMAGES_PER_SECOND = 3.2
REPLAY_SAMPLES = 8
#: Profile one scalar forward in this many: a span per layer costs a
#: sizeable fraction of an 8x8 forward, so profiling every forward would
#: distort the classifier numbers the trace reports.
PROFILE_EVERY = 16

_PAIRS, _HELD_OUT, _REPLAY, _SPARSE_RS = 5, 6, 8, 9


def _zoo_config(workload):
    from repro.models.zoo import ZooConfig

    return ZooConfig(
        image_size=workload.image_size,
        train_per_class=workload.train_per_class,
        epochs=workload.epochs,
        cache_dir=str(WORK / "zoo"),
    )


def setup(workload):
    """Load the pretrained model and screen its synthesis training set.

    The training pairs are the first correctly classified training
    images, in a fixed shuffled order, that the fixed-prioritization
    sketch breaks within the per-image budget (as
    ``ExperimentContext.synthesis_training_pairs`` screens them).
    """
    from repro.attacks.fixed_sketch import FixedSketchAttack
    from repro.models.zoo import ModelZoo

    zoo = ModelZoo(_zoo_config(workload))
    trained = zoo.get(workload.arch)
    candidates = zoo.correctly_classified(workload.arch, split="train").pairs()
    probe = FixedSketchAttack()
    pairs = []
    for index in workloads.rng(0, _PAIRS).permutation(len(candidates)):
        image, label = candidates[index]
        if probe.attack(
            trained.classifier, image, label, budget=workload.per_image_budget
        ).success:
            pairs.append((image, label))
            if len(pairs) == workload.train_pairs:
                break
    return zoo, trained, pairs


def _evaluation_key(evaluation) -> tuple:
    return (
        evaluation.successes,
        evaluation.total_queries,
        evaluation.avg_queries,
        [
            (r.success, r.queries, repr(r.pair), r.adversarial_class)
            for r in evaluation.results
        ],
    )


def run(workload, seed: int, seconds: float, trace: bool, smoke: bool) -> RunResult:
    from repro.attacks.sketch_attack import SketchAttack
    from repro.attacks.sparse_rs import SparseRS, SparseRSConfig
    from repro.core.synthesis import oppsla
    from repro.core.synthesis.score import evaluate_program
    from repro.eval.runner import attack_dataset
    from repro.models.zoo import ModelZoo

    ModelZoo(_zoo_config(workload)).get(workload.arch)  # trains on first use
    # probes would sit inside the traced spans
    speed = HostSpeed(probing=not trace)
    setups = []
    for _ in range(SETUPS):
        mark = speed.mark()
        speed.probe(SETUP_PROBES)
        zoo, trained, pairs = setup(workload)
        speed.probe(SETUP_PROBES)
        setups.append(speed.since(mark))
    held_out = zoo.correctly_classified(workload.arch, split="test").pairs()
    held_out = [held_out[i] for i in workloads.rng(0, _HELD_OUT).permutation(len(held_out))]

    tracer = Tracer()
    classifier = trained.classifier
    if trace:
        classifier = TimedClassifier(
            classifier,
            tracer,
            profiler=ModelProfiler(trained.model, tracer, every=PROFILE_EVERY),
        )

    def span(name, fn, *args, **kwargs):
        frame = tracer.begin()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(name, frame)

    # One MH iteration is one candidate evaluation; its latency is what
    # the synthesis user waits on per iteration.
    iteration_s: List[float] = []

    def timed_evaluate(*args, **kwargs):
        frame = tracer.begin()
        mark = speed.mark()
        try:
            return evaluate_program(*args, **kwargs)
        finally:
            tracer.end("synthesis.evaluate", frame)
            speed.probe()
            iteration_s.append(speed.since(mark, last=3))

    # Each chain is followed by its share of the attacks, so that both
    # rates are measured across the whole run: a host slowdown of a few
    # seconds then slows both a little rather than one of them a lot.
    chain_count = max(1, round(seconds * CHAINS_PER_SECOND))
    image_batches = np.array_split(np.arange(round(seconds * IMAGES_PER_SECOND)), chain_count)
    chains, sketch = [], None
    attacked = []  # (attack, held-out index, result)
    synth_s = attack_s = 0.0
    synth_images = synth_repeats = 0
    oppsla.evaluate_program = timed_evaluate
    try:
        for chain, images in enumerate(image_batches):
            synthesizer = oppsla.Oppsla(
                oppsla.OppslaConfig(
                    max_iterations=workload.chain_iterations,
                    beta=workload.beta,
                    per_image_budget=workload.per_image_budget,
                    seed=chain,
                )
            )
            seen = (classifier.images, classifier.repeats) if trace else None
            mark = speed.mark()
            chains.append(
                span("synthesis.synthesize", synthesizer.synthesize, classifier, pairs)
            )
            synth_s += speed.since(mark)
            if trace:
                synth_images += classifier.images - seen[0]
                synth_repeats += classifier.repeats - seen[1]
            if sketch is None:
                sketch = SketchAttack(chains[0].best_program)
            mark = speed.mark()
            for index in images.tolist():
                # a Sparse-RS seed per image: with one seed for all, the
                # run's Sparse-RS queries moved by up to 16% between seeds
                sparse_seed = int(workloads.rng(seed, _SPARSE_RS, index).integers(2**31))
                for attack in (sketch, SparseRS(SparseRSConfig(seed=sparse_seed))):
                    if trace and "attack" not in vars(attack):
                        # the attack's own work inside attack_dataset
                        attack.attack = tracer.timed("attack", attack.attack)
                    summary = span(
                        "runner.attack_dataset", attack_dataset, attack, classifier,
                        [held_out[index]], budget=workload.attack_budget,
                    )
                    speed.probe()
                    attacked.append((attack, index, summary.results[0]))
            attack_s += speed.since(mark)
    finally:
        oppsla.evaluate_program = evaluate_program
        for attack, _, _ in attacked:
            vars(attack).pop("attack", None)

    best = chains[0]
    violations = []
    again = evaluate_program(
        best.best_program, trained.classifier, pairs,
        per_image_budget=workload.per_image_budget,
    )
    if _evaluation_key(again) != _evaluation_key(best.best_evaluation):
        violations.append("re-evaluating the best program changed its evaluation")
    for attack, index, result in attacked:
        if result.queries > workload.attack_budget:
            violations.append(f"{attack.name} on held-out #{index}: over budget")
    picks = workloads.rng(seed, _REPLAY).choice(
        len(attacked), size=min(REPLAY_SAMPLES, len(attacked)), replace=False
    )
    for pick in sorted(picks):
        attack, index, result = attacked[pick]
        image, label = held_out[index]
        direct = attack.attack(trained.classifier, image, label, budget=workload.attack_budget)
        if outcome(direct) != outcome(result):
            violations.append(
                f"{attack.name} on held-out #{index}: attack_dataset "
                f"{outcome(result)} != direct {outcome(direct)}"
            )

    synth_queries = sum(chain.total_queries for chain in chains)
    attack_queries = sum(result.queries for _, _, result in attacked)
    evaluations = len(iteration_s)
    result = RunResult(
        attempted=evaluations + len(attacked),
        failed=sum(1 for _, _, r in attacked if r.error is not None),
        violations=violations,
        fingerprint=fingerprint(
            {
                "accepted": [
                    [entry.iteration, entry.program.to_dict(), entry.evaluation.total_queries]
                    for entry in best.trace.accepted
                ],
                "total_queries": best.total_queries,
                "attacks": [
                    [attack.name, index, outcome(r)] for attack, index, r in attacked[:32]
                ],
            }
        ),
    )
    if violations:
        return result
    if not trace:
        iteration_ms = [value * 1e3 for value in iteration_s]
        result.metrics = {
            "setup_s": statistics.median(setups),
            "latency_p50_ms": percentile(iteration_ms, 50),
            "latency_p90_ms": percentile(iteration_ms, 90, smoke=smoke),
            "queries_per_s": synth_queries / synth_s,
            "attacks_per_s": len(attacked) / attack_s,
            "peak_rss_mb": peak_rss_mb(),
        }
        return result

    spans = tracer.summary()

    def total(name, key="total_s"):
        return spans.get(name, {}).get(key, 0.0)

    wall = synth_s + attack_s  # raw seconds: a traced run takes no probes
    result.metrics = {
        "classifier.ms_per_image": total("classifier") / total("classifier", "items") * 1e3,
        "classifier.images_per_call": total("classifier", "items") / total("classifier", "count"),
        "classifier.busy_frac": total("classifier") / wall,
        "cache.repeat_query_frac": synth_repeats / synth_images,
        "synthesis.evaluate_share": total("synthesis.evaluate") / total("synthesis.synthesize"),
        "synthesis.evaluate_ms_per_candidate": total("synthesis.evaluate") / evaluations * 1e3,
        "synthesis.mh_self_ms_per_iter": total("synthesis.synthesize", "self_s") / evaluations * 1e3,
        "sketch.self_ms_per_query": total("synthesis.evaluate", "self_s") / synth_queries * 1e3,
        "attack.self_ms_per_query": total("attack", "self_s") / attack_queries * 1e3,
        "runner.self_ms_per_query": total("runner.attack_dataset", "self_s") / attack_queries * 1e3,
        "loadgen.sent": result.attempted,
        "trace.overhead_frac": tracer.span_count() * span_cost() / wall,
        # the forward plus the self times of the sketch and of the attacks,
        # leaving out the outer spans' own work (the MH loop, the runner),
        # so time no named layer accounts for lowers the share
        "trace.coverage": (
            total("classifier")
            + total("synthesis.evaluate", "self_s")
            + total("attack", "self_s")
        ) / wall,
        **nn_shares(spans),
    }
    return result
