"""End-to-end owner/provider benchmark of the F2 reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload point-select --seed 1 --seconds 10 --trace 0

Workloads: ``point-select``, ``verified-scan`` and ``ingest`` (see
``workloads.py`` and ``layer_map.json``).  ``--trace 0`` measures the
end-to-end metrics with no benchmark wrappers installed; ``--trace 1`` is
the separate traced run that reports the per-layer metrics.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
workload, seed, input digest, sample counts, the ``repro.obs`` settings
used and, with ``--trace 0``, the wall-clock latencies behind the metrics
in calibration units (``cal``, see ``calibration.py``).

The program is imported from ``src/`` next to this directory; without it
the benchmark exits with status 2 and prints no result.  The run pins
``PYTHONHASHSEED`` (see ``HASH_SEED``) and clears the ``REPRO_*``
variables that select a backend, verification, workers or observability.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent

#: Inherited settings that would change what is measured; the run uses the
#: shipped defaults instead.
SCRUBBED_ENV = ("REPRO_VERIFY", "REPRO_BACKEND", "REPRO_WORKERS", "REPRO_METRICS", "REPRO_TRACE")
#: String hashing is randomised per process, and the program's dict and set
#: work is fast under some hash keys and slow under others: identical runs
#: differed by up to a quarter.  Every run therefore uses one fixed key.
HASH_SEED = "0"


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("point-select", "verified-scan", "ingest"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # The key is fixed at interpreter start, so restart this process
        # (same pid, no child) under the pinned key.
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, __file__, *argv])
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {source}", file=sys.stderr)
        return 2
    cleared = sorted(name for name in SCRUBBED_ENV if os.environ.pop(name, None) is not None)
    # repro reads its environment at import time, so import only now.
    sys.path.insert(0, str(source))
    sys.path.insert(0, str(HERE))
    from repro import obs

    import workloads

    result, info = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    info["obs"] = {
        "metrics_enabled": obs.REGISTRY.enabled,
        "tracing_active": obs.tracing_active(),
        "cleared_env": cleared,
        "python_hash_seed": HASH_SEED,
    }
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
