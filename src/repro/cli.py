"""Command-line interface for the OPPSLA reproduction.

Subcommands::

    python -m repro.cli train --dataset cifar --arch vgg16bn
    python -m repro.cli synthesize --dataset cifar --arch vgg16bn \
        --iterations 40 --out program.json
    python -m repro.cli attack --dataset cifar --arch vgg16bn \
        --program program.json --images 20 --budget 2048
    python -m repro.cli experiment fig3-cifar

Each subcommand builds on the same cached model zoo the benchmarks use,
so artifacts are shared across invocations.
"""

from __future__ import annotations

import argparse
import sys

from repro.attacks.fixed_sketch import FixedSketchAttack
from repro.attacks.sketch_attack import SketchAttack
from repro.attacks.sparse_rs import SparseRS, SparseRSConfig
from repro.core.dsl.analysis import lint_program
from repro.core.dsl.grammar import Grammar
from repro.core.dsl.printer import format_program
from repro.core.dsl.typecheck import check_program
from repro.core.synthesis.oppsla import Oppsla, OppslaConfig, SynthesisResult
from repro.eval.experiments import (
    ExperimentContext,
    active_profile,
    run_figure3,
    run_figure4,
    run_table1,
    run_table2,
)
from repro.eval.reporting import (
    format_ablation,
    format_success_curves,
    format_synthesis_study,
    format_transfer,
)
from repro.eval.runner import attack_dataset
from repro.models.registry import ARCHITECTURES
from repro.models.zoo import ModelZoo, ZooConfig
from repro.runtime.checkpoint import CheckpointStore, load_campaign
from repro.runtime.events import RunLog
from repro.runtime.faults import FaultPolicy
from repro.runtime.pool import WorkerPool


def _add_zoo_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", choices=["cifar", "imagenet"], default="cifar")
    parser.add_argument("--arch", choices=sorted(ARCHITECTURES), default="vgg16bn")
    parser.add_argument("--image-size", type=int, default=16)
    parser.add_argument("--train-per-class", type=int, default=200)
    parser.add_argument("--epochs", type=int, default=5)
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--seed", type=int, default=0)


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def _add_runtime_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers",
        type=_nonnegative_int,
        default=0,
        help="worker processes for parallel execution (0 = sequential)",
    )
    parser.add_argument(
        "--run-log",
        default=None,
        metavar="PATH",
        help="append structured JSONL run telemetry to this file",
    )
    parser.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        help="per-task wall-clock timeout in seconds (parallel runs only)",
    )
    parser.add_argument(
        "--task-retries",
        type=_nonnegative_int,
        default=1,
        help="retries per faulted task before recording a degraded result",
    )


def _runtime(args: argparse.Namespace):
    """(executor, run_log) from the runtime flags; both may be ``None``."""
    run_log = RunLog(args.run_log) if args.run_log else None
    executor = None
    if args.workers > 0:
        policy = FaultPolicy(timeout=args.task_timeout, retries=args.task_retries)
        executor = WorkerPool(
            workers=args.workers, policy=policy, run_log=run_log
        )
    return executor, run_log


def _zoo(args: argparse.Namespace) -> ModelZoo:
    kwargs = dict(
        dataset=args.dataset,
        image_size=args.image_size,
        train_per_class=args.train_per_class,
        epochs=args.epochs,
        seed=args.seed,
    )
    if args.cache_dir:
        kwargs["cache_dir"] = args.cache_dir
    return ModelZoo(ZooConfig(**kwargs))


def cmd_train(args: argparse.Namespace) -> int:
    zoo = _zoo(args)
    trained = zoo.get(args.arch, force_retrain=args.force)
    print(
        f"{args.dataset}/{args.arch}: train accuracy {trained.train_accuracy:.1%}, "
        f"test accuracy {trained.test_accuracy:.1%}"
    )
    return 0


def cmd_synthesize(args: argparse.Namespace) -> int:
    zoo = _zoo(args)
    trained = zoo.get(args.arch)
    pairs = zoo.correctly_classified(
        args.arch, split="train", limit=args.train_images, label=args.label
    ).pairs()
    config = OppslaConfig(
        max_iterations=args.iterations,
        beta=args.beta,
        per_image_budget=args.per_image_budget,
        seed=args.seed,
    )
    executor, run_log = _runtime(args)
    if args.checkpoint and args.resume:
        from repro.core.synthesis.mh import latest_chain_snapshot

        snapshot = latest_chain_snapshot(CheckpointStore(args.checkpoint))
        if snapshot is not None:
            print(
                f"# resuming MH chain from iteration {snapshot['iteration']}"
                f"/{config.max_iterations}"
            )
    result = Oppsla(config).synthesize(
        trained.classifier,
        pairs,
        executor=executor,
        checkpoint=args.checkpoint,
        resume=args.resume,
        checkpoint_interval=args.checkpoint_interval,
    )
    if run_log is not None:
        run_log.emit(
            "synthesis_summary",
            total_queries=result.total_queries,
            forwards=result.forwards,
            cache_hit_rate=result.cache_hit_rate,
            iterations=result.trace.iterations,
            acceptance_rate=result.trace.acceptance_rate,
            best_successes=result.best_evaluation.successes,
            total_images=result.best_evaluation.total_images,
        )
        run_log.close()
    forwards = "in workers" if result.forwards is None else result.forwards
    print(format_program(result.program))
    print(
        f"# synthesis queries: {result.total_queries} "
        f"(forward passes: {forwards}), "
        f"train successes: {result.best_evaluation.successes}"
        f"/{result.best_evaluation.total_images}"
    )
    if args.out:
        result.save(args.out)
        print(f"# saved to {args.out}")
    return 0


def cmd_attack(args: argparse.Namespace) -> int:
    zoo = _zoo(args)
    trained = zoo.get(args.arch)
    pairs = zoo.correctly_classified(
        args.arch, split="test", limit=args.images, label=args.label
    ).pairs()
    if args.program:
        program = SynthesisResult.load_program(args.program)
        for warning in lint_program(program):
            print(f"# warning: {warning}")
        grammar = Grammar((args.image_size, args.image_size))
        check = check_program(program, grammar)
        for diagnostic in check.errors:
            print(f"# warning: {diagnostic}")
        attack = SketchAttack(program)
    elif args.baseline == "sparse-rs":
        attack = SparseRS(SparseRSConfig(seed=args.seed))
    else:
        attack = FixedSketchAttack()
    executor, run_log = _runtime(args)
    store = None
    if args.checkpoint:
        store = CheckpointStore(args.checkpoint)
        _, restored, _, _, _ = load_campaign(store)
        if restored:
            print(
                f"# resumed {len(restored)}/{len(pairs)} images, "
                "0 queries replayed"
            )
    summary = attack_dataset(
        attack,
        trained.classifier,
        pairs,
        budget=args.budget,
        executor=executor,
        run_log=run_log,
        cache_size=args.cache_size,
        freeze=args.freeze,
        checkpoint=store,
        base_seed=args.seed,
        step_batch=args.step_batch,
    )
    if run_log is not None:
        run_log.close()
    print(
        f"{summary.attack_name}: success {summary.success_rate:.1%}, "
        f"avg queries {summary.avg_queries:.1f}, "
        f"median {summary.median_queries:.1f} "
        f"({summary.successes}/{summary.total_images} images)"
    )
    return 0


def cmd_campaign_run(args: argparse.Namespace) -> int:
    from repro.campaign.runner import run_campaign
    from repro.campaign.spec import CampaignSpec, SpecError
    from repro.campaign.store import ResultsStore

    try:
        spec = CampaignSpec.load(args.spec)
    except SpecError as exc:
        raise SystemExit(f"error: {args.spec}: {exc}") from exc
    executor, run_log = _runtime(args)
    results_store = ResultsStore(args.store) if args.store else None
    run = run_campaign(
        spec,
        args.root,
        executor=executor,
        run_log=run_log,
        results_store=results_store,
        progress=print,
        zoo_cache_dir=args.cache_dir,
    )
    if run_log is not None:
        run_log.close()
    replayed = sum(1 for outcome in run.outcomes if outcome.replayed)
    print(
        f"campaign {spec.campaign_id}: {len(run.outcomes)} cells complete "
        f"({replayed} replayed from checkpoint)"
    )
    return 0


def cmd_campaign_report(args: argparse.Namespace) -> int:
    from repro.campaign.report import (
        campaign_csv,
        campaign_markdown,
        write_campaign_bench,
    )

    from repro.campaign.report import ReportError

    include_timing = not args.no_timing
    try:
        if args.format == "csv":
            rendered = campaign_csv(args.root, include_timing=include_timing)
        else:
            rendered = campaign_markdown(args.root, include_timing=include_timing)
    except ReportError as exc:
        raise SystemExit(f"error: {exc}") from exc
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(rendered)
        print(f"# report written to {args.out}")
    else:
        print(rendered, end="")
    if args.bench_dir:
        path = write_campaign_bench(args.root, args.bench_dir)
        print(f"# BENCH trajectory written to {path}")
    return 0


def cmd_campaign_list(args: argparse.Namespace) -> int:
    from repro.campaign.runner import campaign_status, loaded_spec
    from repro.campaign.spec import SpecError

    try:
        spec = loaded_spec(args.root)
    except SpecError as exc:
        raise SystemExit(f"error: {exc}") from exc
    states = campaign_status(spec, args.root)
    done = sum(1 for _, state in states if state == "done")
    print(f"campaign {spec.campaign_id}: {done}/{len(states)} cells done")
    for cell, state in states:
        print(f"  {state:>7}  {cell.cell_id}")
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    context = ExperimentContext(active_profile())
    name = args.name
    if name == "fig3-cifar":
        for arch in context.architectures("cifar"):
            curves = run_figure3(context, "cifar", arch)
            print(format_success_curves(f"cifar/{arch}", curves))
    elif name == "fig3-imagenet":
        for arch in context.architectures("imagenet"):
            curves = run_figure3(context, "imagenet", arch)
            print(format_success_curves(f"imagenet/{arch}", curves))
    elif name == "table1":
        print(format_transfer(run_table1(context)))
    elif name == "fig4":
        print(format_synthesis_study(run_figure4(context)))
    elif name == "table2":
        for arch in context.architectures("cifar"):
            print(format_ablation(run_table2(context, arch)))
    else:  # pragma: no cover - argparse restricts choices
        raise AssertionError(name)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="OPPSLA reproduction CLI"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    train = subparsers.add_parser("train", help="train (or load) a classifier")
    _add_zoo_arguments(train)
    train.add_argument("--force", action="store_true", help="retrain even if cached")
    train.set_defaults(func=cmd_train)

    synthesize = subparsers.add_parser(
        "synthesize", help="synthesize an adversarial program"
    )
    _add_zoo_arguments(synthesize)
    synthesize.add_argument("--iterations", type=int, default=40)
    synthesize.add_argument("--beta", type=float, default=0.005)
    synthesize.add_argument("--per-image-budget", type=int, default=1024)
    synthesize.add_argument("--train-images", type=int, default=16)
    synthesize.add_argument("--label", type=int, default=None)
    synthesize.add_argument("--out", default=None, help="save program JSON here")
    synthesize.add_argument(
        "--checkpoint",
        default=None,
        metavar="DIR",
        help="durably snapshot the MH chain into this directory so a "
        "killed synthesis can be resumed bit-identically",
    )
    synthesize.add_argument(
        "--resume",
        action="store_true",
        help="continue the chain from the latest snapshot in --checkpoint",
    )
    synthesize.add_argument(
        "--checkpoint-interval",
        type=int,
        default=10,
        help="iterations between durable chain snapshots",
    )
    _add_runtime_arguments(synthesize)
    synthesize.set_defaults(func=cmd_synthesize)

    attack = subparsers.add_parser("attack", help="attack test images")
    _add_zoo_arguments(attack)
    attack.add_argument("--program", default=None, help="program JSON to use")
    attack.add_argument(
        "--baseline",
        choices=["fixed", "sparse-rs"],
        default="fixed",
        help="attack to run when no --program is given",
    )
    attack.add_argument("--images", type=int, default=20)
    attack.add_argument("--label", type=int, default=None)
    attack.add_argument("--budget", type=int, default=2048)
    attack.add_argument(
        "--cache-size",
        type=_nonnegative_int,
        default=0,
        help="LRU query-cache entries per worker (0 = no cache); caching "
        "sits inside the counting boundary so query counts stay faithful",
    )
    attack.add_argument(
        "--freeze",
        action="store_true",
        help="run the classifier on the inference fast path (folded batch "
        "norms, reused buffers); query counts are unchanged but scores "
        "are no longer bit-identical to the default eval path",
    )
    attack.add_argument(
        "--checkpoint",
        default=None,
        metavar="DIR",
        help="record each completed image in this directory; rerunning "
        "with the same flags resumes the campaign, skipping completed "
        "images with bit-identical results (resume is implicit)",
    )
    attack.add_argument(
        "--step-batch",
        type=_nonnegative_int,
        default=32,
        metavar="N",
        help="batch-native stepping window: speculate up to N queries "
        "per vectorized forward pass (bit-identical results and query "
        "counts; 0 = scalar)",
    )
    _add_runtime_arguments(attack)
    attack.set_defaults(func=cmd_attack)

    campaign = subparsers.add_parser(
        "campaign",
        help="run/report a declarative experiment matrix "
        "({models x attacks x datasets x budgets} from a TOML/JSON spec)",
    )
    campaign_sub = campaign.add_subparsers(dest="campaign_command", required=True)

    campaign_run = campaign_sub.add_parser(
        "run",
        help="execute every cell of a campaign spec (resumes implicitly: "
        "completed cells are skipped, the in-flight cell resumes at "
        "per-image granularity)",
    )
    campaign_run.add_argument("--spec", required=True, metavar="PATH",
                              help="campaign spec (.toml or .json)")
    campaign_run.add_argument("--root", required=True, metavar="DIR",
                              help="campaign working directory (checkpoints, "
                              "manifests, per-cell records)")
    campaign_run.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="append completed cells to this long-lived results store "
        "(the cross-commit perf trendline)",
    )
    campaign_run.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="model-zoo cache directory for cifar/imagenet cells",
    )
    _add_runtime_arguments(campaign_run)
    campaign_run.set_defaults(func=cmd_campaign_run)

    campaign_report = campaign_sub.add_parser(
        "report", help="render a campaign as Markdown/CSV and BENCH JSON"
    )
    campaign_report.add_argument("--root", required=True, metavar="DIR")
    campaign_report.add_argument(
        "--format", choices=["md", "csv"], default="md"
    )
    campaign_report.add_argument("--out", default=None, metavar="PATH",
                                 help="write the report here instead of stdout")
    campaign_report.add_argument(
        "--bench-dir",
        default=None,
        metavar="DIR",
        help="also write BENCH_campaign_<id>.json into this directory",
    )
    campaign_report.add_argument(
        "--no-timing",
        action="store_true",
        help="omit wall-clock columns; the remaining report is a "
        "deterministic function of the attack results (bit-identical "
        "across kill-and-resume)",
    )
    campaign_report.set_defaults(func=cmd_campaign_report)

    campaign_list = campaign_sub.add_parser(
        "list", help="show per-cell status (done/partial/pending)"
    )
    campaign_list.add_argument("--root", required=True, metavar="DIR")
    campaign_list.set_defaults(func=cmd_campaign_list)

    experiment = subparsers.add_parser(
        "experiment", help="run a paper experiment end to end"
    )
    experiment.add_argument(
        "name",
        choices=["fig3-cifar", "fig3-imagenet", "table1", "fig4", "table2"],
    )
    experiment.set_defaults(func=cmd_experiment)

    serve = subparsers.add_parser(
        "serve",
        help="serve attacks over HTTP with a micro-batching query broker "
        "(see repro-serve --help for flags)",
        add_help=False,
    )
    serve.set_defaults(func=cmd_serve)

    cluster = subparsers.add_parser(
        "cluster",
        help="serve through a sharded multi-worker tier with replica "
        "supervision and rebalancing (see repro cluster --help)",
        add_help=False,
    )
    cluster.set_defaults(func=cmd_cluster)
    return parser


def cmd_serve(args) -> int:  # pragma: no cover - dispatch happens in main()
    from repro.serve.server import main as serve_main

    return serve_main([])


def cmd_cluster(args) -> int:  # pragma: no cover - dispatch happens in main()
    from repro.cluster.router import main as cluster_main

    return cluster_main([])


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # ``serve`` and ``cluster`` forward their flags verbatim to their own
    # parsers; argparse's REMAINDER cannot pass leading optionals through
    # a subparser, so dispatch before parsing.  Lazy import: the serving
    # stack is not needed for any other subcommand.
    if argv and argv[0] == "serve":
        from repro.serve.server import main as serve_main

        return serve_main(argv[1:])
    if argv and argv[0] == "cluster":
        from repro.cluster.router import main as cluster_main

        return cluster_main(argv[1:])
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
