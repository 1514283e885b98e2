"""Command-line interface.

Subcommands:
  gen     generate a seeded synthetic dataset directory
  query3  run the three-hop affiliation query against a dataset
  pathq   run the generic N-hop path query
  bench   run the scaling/mode benchmark grid and emit CSV

Anchor/source/target arguments accept raw entity ids or labels resolved
through the dataset's label map file.
"""

from __future__ import annotations

import argparse
import sys

from .bench import BenchSpec, run_bench
from .errors import KghopError, ParseError, QueryError
from .generator import (
    AWARD_ANCHOR_LABEL,
    FIELD_ANCHOR_LABEL,
    GeneratorSpec,
    generate,
    load_dataset_dir,
)
from .generic import multihop_reasoning_generic
from .kgstore import parse_uint
from .oracle import oracle_beam_paths, oracle_three_hop
from .pipeline import ThreeHopQuery, three_hop_query


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--threads", type=int, default=1, help="worker threads")
    parser.add_argument("--topk", type=int, default=50, help="result size K")
    parser.add_argument("--dim", type=int, default=8, help="embedding dimension")
    parser.add_argument("--gamma", type=float, default=1.0, help="score normalization constant")
    parser.add_argument(
        "--mode",
        choices=("simple", "optimized", "oracle"),
        default="optimized",
        help="engine implementation",
    )
    parser.add_argument(
        "--merge",
        choices=("tree", "locked"),
        default="tree",
        help="reduction strategy for per-worker selectors",
    )
    parser.add_argument("--seed", type=int, default=42, help="RNG seed")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kghop",
        description="Parallel multi-hop reasoning over knowledge graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic dataset")
    _common_flags(gen)
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument("--entities", type=int, default=10000)
    gen.add_argument("--relations", type=int, default=3)
    gen.add_argument("--persons", type=int, default=2000)
    gen.add_argument("--universities", type=int, default=500)
    gen.add_argument("--edges", type=int, default=6000)
    gen.add_argument("--noise", type=float, default=0.01, help="plant noise scale")
    gen.add_argument("--plants", type=int, default=10, help="planted near-exact matches")

    query3 = sub.add_parser("query3", help="three-hop affiliation query")
    _common_flags(query3)
    query3.add_argument("--data", required=True, help="dataset directory from `gen`")
    query3.add_argument("--anchor1", default=AWARD_ANCHOR_LABEL, help="hop-1 anchor (id or label)")
    query3.add_argument("--rel1", type=int, default=0, help="hop-1 relation id")
    query3.add_argument("--anchor2", default=FIELD_ANCHOR_LABEL, help="hop-2 anchor (id or label)")
    query3.add_argument("--rel2", type=int, default=1, help="hop-2 relation id")
    query3.add_argument("--rel3", type=int, default=2, help="hop-3 relation id")
    query3.add_argument(
        "--format", choices=("lines", "table"), default="lines", help="output rendering"
    )

    pathq = sub.add_parser("pathq", help="generic N-hop path query")
    _common_flags(pathq)
    pathq.add_argument("--data", required=True, help="dataset directory from `gen`")
    pathq.add_argument("--source", required=True, help="source entity (id or label)")
    pathq.add_argument("--target", required=True, help="target entity (id or label)")
    pathq.add_argument("--hops", type=int, default=3, help="maximum path length")

    bench = sub.add_parser("bench", help="scaling and mode-comparison benchmark")
    _common_flags(bench)
    bench.add_argument("--entities", type=int, default=12000)
    bench.add_argument("--relations", type=int, default=3)
    bench.add_argument("--persons", type=int, default=2000)
    bench.add_argument("--universities", type=int, default=5000)
    bench.add_argument("--edges", type=int, default=12000)
    bench.add_argument("--noise", type=float, default=0.01)
    bench.add_argument("--plants", type=int, default=10)
    bench.add_argument("--workers", default="1,2,4,8", help="comma-separated worker counts")
    bench.add_argument("--modes", default="simple,optimized", help="comma-separated modes")
    bench.add_argument("--reps", type=int, default=5, help="timed repetitions per cell")
    bench.add_argument("--warmups", type=int, default=1, help="discarded warmup runs per cell")
    bench.add_argument("--hops", type=int, default=3, help="generic-query hop count")
    bench.add_argument("--csv", default=None, help="CSV output path (appended)")

    return parser


def _resolve_entity(value: str, labels: dict[str, int], what: str) -> int:
    """An id under the loaders' grammar (ASCII digits only), else a label."""
    if value.isascii() and value.isdigit():
        try:
            return parse_uint(value, 1, what)
        except ParseError:
            raise QueryError(f"{what} {value} is not an unsigned 64-bit entity id") from None
    if value in labels:
        return labels[value]
    raise QueryError(f"unknown {what} {value!r}: not an id and not in the label map")


def _cmd_gen(args) -> int:
    spec = GeneratorSpec(
        num_entities=args.entities,
        num_persons=args.persons,
        num_universities=args.universities,
        num_edges=args.edges,
        num_relations=args.relations,
        dim=args.dim,
        seed=args.seed,
        noise=args.noise,
        plants=args.plants,
    )
    paths = generate(spec).write(args.out)
    for name in sorted(paths):
        print(f"{name}\t{paths[name]}")
    return 0


def _cmd_query3(args) -> int:
    store, labels = load_dataset_dir(args.data)
    query = ThreeHopQuery(
        anchor1=_resolve_entity(args.anchor1, labels, "anchor1"),
        rel1=args.rel1,
        anchor2=_resolve_entity(args.anchor2, labels, "anchor2"),
        rel2=args.rel2,
        rel3=args.rel3,
        k=args.topk,
        gamma=args.gamma,
    )
    if args.mode == "oracle":
        result = oracle_three_hop(store, query)
    else:
        result = three_hop_query(
            store, query, mode=args.mode, workers=args.threads, merge=args.merge
        )
    if args.format == "table":
        print(result.table())
    else:
        for line in result.machine_lines():
            print(line)
    return 0


def _cmd_pathq(args) -> int:
    store, labels = load_dataset_dir(args.data)
    source = _resolve_entity(args.source, labels, "source")
    target = _resolve_entity(args.target, labels, "target")
    if args.mode == "oracle":
        paths = oracle_beam_paths(store, source, target, args.hops, args.topk, gamma=args.gamma)
    elif args.mode == "optimized":
        paths = multihop_reasoning_generic(
            store, source, target, args.hops, args.topk,
            workers=args.threads, gamma=args.gamma,
        )
    else:
        raise QueryError("pathq supports --mode optimized or oracle")
    for sp in paths:
        print(f"{sp.score!r}\t{sp.path.render()}")
    return 0


def _cmd_bench(args) -> int:
    spec = BenchSpec(
        entities=args.entities,
        persons=args.persons,
        universities=args.universities,
        edges=args.edges,
        relations=args.relations,
        dim=args.dim,
        seed=args.seed,
        noise=args.noise,
        plants=args.plants,
        k=args.topk,
        gamma=args.gamma,
        modes=tuple(m.strip() for m in args.modes.split(",") if m.strip()),
        workers=tuple(int(w) for w in args.workers.split(",") if w.strip()),
        repetitions=args.reps,
        warmups=args.warmups,
        generic_hops=args.hops,
    )
    run_bench(spec, csv_path=args.csv, echo=True)
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "query3": _cmd_query3,
    "pathq": _cmd_pathq,
    "bench": _cmd_bench,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except KghopError as exc:
        print(f"kghop: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
