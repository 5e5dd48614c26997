"""The repository benchmark: one command, three workloads, a per-layer ledger.

Run from the repository root::

    python3 perfbench/run.py --workload office-music --seed 1 --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``office-music``  -- closed loop, ``SpotFi.locate`` with the paper's
  2-D MUSIC, 6 office APs x 10 packets per fix;
* ``office-esprit`` -- the same bursts through ``estimator="esprit"``;
* ``serve-sharded`` -- open loop through ``ShardRouter`` to 2 shard
  processes, small testbed, ``tof`` tier.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` splits the time between an untraced and a traced stretch
and reports the per-layer metrics: the benchmark drives each layer's
public functions itself and keeps spans (name, start, end, parent) in
memory, written to ``<out>/spans-<workload>-<seed>.jsonl`` at the end.
``--profile N`` runs N office fixes under cProfile instead and checks each
stage's share of fix time against the traced shares.

End-to-end timings are reported at the speed of a reference host: a
fixed probe kernel (``ledger.SpeedProbe``) runs after every fix, and each
timing is scaled by how long the probe took around it.  This shared host's
CPU speed drifts by up to a third within a minute; the scaling removes
that drift from run-to-run comparisons.  The table and the report also
give every scaled timing as measured.

Every run prints a table of metrics with units and sample counts, writes a
report with the machine stamp to ``<out>/<workload>-<seed>-trace<t>.json``,
and prints one JSON line last: ``correct``, ``attempted``, ``failed``,
``metrics``.  It exits 1 when an output check fails and 2 when the
program under test cannot be imported.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

# Pin BLAS before numpy loads: OpenBLAS would otherwise start up to 64
# threads on a 2-core machine, in this process and in every forked shard.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("office-music", "office-esprit", "serve-sharded")


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path; refuse any other copy."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"error: no program under test at {src / 'repro'}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        sys.exit(f"error: imported repro from {repro.__file__}, not {src}")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="smallest size: fewest targets/sources and one set-up",
    )
    parser.add_argument(
        "--profile",
        type=int,
        default=0,
        metavar="FIXES",
        help="office-* only: cProfile cross-check of the traced stage shares",
    )
    parser.add_argument("--out", default=str(HERE / "out"), help="report directory")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    _import_program()
    import report

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.profile:
        if args.workload == "serve-sharded":
            sys.exit("error: --profile applies to the office-* workloads")
        import office

        ok, lines = office.profile_check(args.workload, args.seed, args.profile)
        print("\n".join(lines))
        return 0 if ok else 1
    if args.workload == "serve-sharded":
        import serve

        outcome = serve.run(
            args.seed, args.seconds, bool(args.trace), args.smoke, out_dir
        )
    else:
        import office

        outcome = office.run(
            args.workload, args.seed, args.seconds, bool(args.trace), args.smoke
        )
    return report.emit(args, outcome, ROOT, out_dir)


if __name__ == "__main__":
    sys.exit(main())
