"""codat benchmark command.

    python3 benchmarks/run.py --workload train_eta0.3 --seed 1 --seconds 10 --trace 0

Runs one workload (train_eta0.3, train_eta1.5 or eval_pgd20) on inputs
generated from `--seed` for about `--seconds` seconds of measured work,
checks the outputs, writes a full record to benchmarks/out/, and prints
one JSON line last: the end-to-end metrics with `--trace 0`, the per-layer
metrics of a separate traced pass with `--trace 1`.  The program is
imported from the `src/` directory next to this one; without it the
command exits with status 2 before measuring anything.
"""

from __future__ import annotations

from time import perf_counter

_STARTED = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

# pinned before numpy loads: one BLAS thread keeps runs steady on a shared 2-core machine
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def parse_args(argv):
    from bench import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    if not os.path.isdir(os.path.join(SRC, "codat")):
        print(f"codat sources not found under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import codat

    if os.path.dirname(os.path.abspath(codat.__file__)) != os.path.join(SRC, "codat"):
        print(f"imported codat from {codat.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import bench

    args = parse_args(argv)
    import_s = perf_counter() - _STARTED
    result, record = bench.run(
        args.workload, args.seed, args.seconds, bool(args.trace), import_s, BLAS_THREADS
    )
    units = record["units"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {units['count']} units")
    for name, metric in result["metrics"].items():
        print(f"  {name:44s} {metric['value']:.6g} {metric['unit']}")
    print(f"  params_digest      {record['params_digest']}")
    print(f"  eval_report_sha256 {record.get('eval_report_sha256')}")
    for message in record["failures"]:
        print(f"  failed: {message}")
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
