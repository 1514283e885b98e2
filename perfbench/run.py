"""Paper-scale query-stream benchmark of kghop.

Run from the root of a checkout:

    python3 perfbench/run.py --workload query3-w1 --seed 1 --seconds 10 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
(see metrics.py). The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the lines before
it are a readable report and a JSON record of the run's provenance and
per-metric sample counts. Traced runs also write their spans to
perfbench/out/trace-<workload>.tsv. kghop is imported from the
checkout's src/ directory; without it the script exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("query3-w1", "query3-w2", "pathq-w1"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="summed query time measured per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if not (SRC / "kghop" / "__init__.py").is_file():
        print(f"perfbench: no kghop sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness
    import metrics

    report = harness.run(args.workload, args.seed, args.seconds, bool(args.trace),
                         out_dir=HERE / "out")
    documented = {m.name: m for m in [*metrics.END_TO_END, *metrics.PER_LAYER, metrics.FAIL_RATIO]}
    fail_ratio = report.failed / report.attempted
    rows = [(name, value, unit, samples) for name, (value, unit, samples) in report.metrics.items()]
    rows.append((metrics.FAIL_RATIO.name, fail_ratio, metrics.FAIL_RATIO.unit, report.attempted))
    print(f"perfbench {args.workload} seed {args.seed} trace {args.trace}: "
          f"correct={report.correct} attempted={report.attempted} failed={report.failed}")
    for name, value, unit, samples in rows:
        doc = documented[name]
        print(f"  {name:<28} {value:>16.6f} {unit:<6} n={samples:<6} "
              f"[{doc.layer}; moves {doc.moves}; on {doc.on}]")
    print(json.dumps({"provenance": report.provenance,
                      "samples": {name: samples for name, _, _, samples in rows}}))
    print(json.dumps({
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in report.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
