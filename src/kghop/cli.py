"""Command-line interface.

Subcommands:
  gen     generate a seeded synthetic dataset directory
  query3  run the three-hop affiliation query against a dataset
  pathq   run the generic N-hop path query
  bench   run the scaling/mode benchmark grid and emit CSV

Each subcommand declares only the flags it reads, with the library's
defaults: GeneratorSpec's, ThreeHopQuery's and BenchSpec's.

Anchor/source/target arguments accept raw entity ids or labels resolved
through the dataset's label map file.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from .bench import MODES_AND_ORACLE, BenchSpec, run_bench
from .errors import KghopError, ParseError, QueryError
from .generator import (
    AWARD_ANCHOR_LABEL,
    FIELD_ANCHOR_LABEL,
    REL_AFFILIATION,
    REL_AWARD,
    REL_FIELD,
    GeneratorSpec,
    generate,
    load_dataset_dir,
)
from .generic import multihop_reasoning_generic
from .kgstore import parse_uint
from .oracle import oracle_beam_paths, oracle_three_hop
from .pipeline import ThreeHopQuery, three_hop_query
from .topk import MERGES

_DATASET_HELP = {
    "dim": "embedding dimension",
    "seed": "RNG seed",
    "noise": "plant noise scale",
    "plants": "planted near-exact matches",
}


def _dataset_flags(parser: argparse.ArgumentParser) -> None:
    """The dataset flags of gen and bench: GeneratorSpec's fields, less any `num_` prefix."""
    for f in fields(GeneratorSpec):
        flag = f.name.removeprefix("num_")
        parser.add_argument(
            f"--{flag}", dest=f.name, metavar=flag.upper(), type=type(f.default),
            default=f.default, help=_DATASET_HELP.get(flag),
        )


def _spec(cls, args, **given):
    """cls built from the parsed flags named after its fields, and the given fields."""
    parsed = {f.name: getattr(args, f.name) for f in fields(cls) if f.name not in given}
    return cls(**given, **parsed)


def _topk_gamma_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--topk", dest="k", type=int, default=ThreeHopQuery.k, help="result size K")
    parser.add_argument(
        "--gamma", type=float, default=ThreeHopQuery.gamma, help="score normalization constant"
    )


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(",") if v.strip())


def _str_list(text: str) -> tuple[str, ...]:
    return tuple(v.strip() for v in text.split(",") if v.strip())


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kghop",
        description="Parallel multi-hop reasoning over knowledge graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic dataset", allow_abbrev=False)
    gen.set_defaults(run=_cmd_gen)
    gen.add_argument("--out", required=True, help="output directory")
    _dataset_flags(gen)

    query3 = sub.add_parser("query3", help="three-hop affiliation query", allow_abbrev=False)
    query3.set_defaults(run=_cmd_query3)
    query3.add_argument("--data", required=True, help="dataset directory from `gen`")
    query3.add_argument("--anchor1", default=AWARD_ANCHOR_LABEL, help="hop-1 anchor (id or label)")
    query3.add_argument("--rel1", type=int, default=REL_AWARD, help="hop-1 relation id")
    query3.add_argument("--anchor2", default=FIELD_ANCHOR_LABEL, help="hop-2 anchor (id or label)")
    query3.add_argument("--rel2", type=int, default=REL_FIELD, help="hop-2 relation id")
    query3.add_argument("--rel3", type=int, default=REL_AFFILIATION, help="hop-3 relation id")
    query3.add_argument("--threads", type=int, default=1, help="worker threads")
    _topk_gamma_flags(query3)
    query3.add_argument(
        "--mode", choices=MODES_AND_ORACLE, default="optimized", help="engine implementation"
    )
    query3.add_argument(
        "--merge", choices=MERGES, default="tree",
        help="reduction strategy for per-worker results",
    )
    query3.add_argument(
        "--format", choices=("lines", "table"), default="lines", help="output rendering"
    )

    pathq = sub.add_parser("pathq", help="generic N-hop path query", allow_abbrev=False)
    pathq.set_defaults(run=_cmd_pathq)
    pathq.add_argument("--data", required=True, help="dataset directory from `gen`")
    pathq.add_argument("--source", required=True, help="source entity (id or label)")
    pathq.add_argument("--target", required=True, help="target entity (id or label)")
    pathq.add_argument("--hops", type=int, default=3, help="maximum path length")
    _topk_gamma_flags(pathq)
    pathq.add_argument(
        "--mode", choices=("optimized", "oracle"), default="optimized",
        help="engine implementation",
    )

    bench = sub.add_parser("bench", help="scaling/mode-comparison benchmark", allow_abbrev=False)
    bench.set_defaults(run=_cmd_bench)
    _dataset_flags(bench)
    _topk_gamma_flags(bench)
    bench.add_argument(
        "--workers", type=_int_list, default=BenchSpec.workers,
        help="comma-separated worker counts",
    )
    bench.add_argument(
        "--modes", type=_str_list, default=BenchSpec.modes,
        help=f"comma-separated modes out of {','.join(MODES_AND_ORACLE)}",
    )
    bench.add_argument(
        "--reps", dest="repetitions", type=int, default=BenchSpec.repetitions,
        help="timed repetitions per cell",
    )
    bench.add_argument(
        "--warmups", type=int, default=BenchSpec.warmups, help="discarded warmup runs per cell"
    )
    bench.add_argument(
        "--hops", dest="generic_hops", type=int, default=BenchSpec.generic_hops,
        help="generic-query hop count",
    )
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
    paths = generate(_spec(GeneratorSpec, args)).write(args.out)
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
        k=args.k,
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
        paths = oracle_beam_paths(store, source, target, args.hops, args.k, gamma=args.gamma)
    else:
        paths = multihop_reasoning_generic(
            store, source, target, args.hops, args.k, gamma=args.gamma
        )
    for sp in paths:
        print(f"{sp.score!r}\t{sp.path.render()}")
    return 0


def _cmd_bench(args) -> int:
    spec = _spec(BenchSpec, args, dataset=_spec(GeneratorSpec, args))
    run_bench(spec, csv_path=args.csv, echo=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except KghopError as exc:
        print(f"kghop: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
