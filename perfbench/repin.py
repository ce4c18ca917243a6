"""Rewrite ``pins.json`` from the inputs this checkout generates.

    python3 perfbench/repin.py

Run it only when a change to the inputs is intended (a new dataset
version, a new trace shape); the diff of ``pins.json`` then shows the
change.  Pins cover seeds 1 and 2 at full scale, untraced and traced,
for the run length in ``BENCHMARK.json``.
"""

from __future__ import annotations

import json

from common import ROOT, use_program
from inputs import PINS_PATH, build_replica, fingerprint, pin_key

SEEDS = (1, 2)


def main() -> None:
    use_program()
    import library
    import serving

    seconds = float(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    pins: dict = {"datasets": {}, "inputs": {}}
    makers = {
        "solve_sparse": ("ctu13", lambda r, s, _t: library.solve_cycles(r, s), False),
        "batch_dense": ("prosper", lambda r, s, _t: library.batch_calls(r, s), False),
        "serve_reads": ("bayc", lambda r, s, t: serving.serve_trace(
            r, s, serving.phase_plan(seconds, serving.SERVE_RATES, t)), True),
        "ingest_durable": ("bayc", lambda r, s, t: serving.ingest_trace(
            r, s, serving.phase_plan(seconds, serving.INGEST_RATES, t)), True),
    }
    for workload, (dataset, make, open_loop) in makers.items():
        replica = build_replica(dataset)
        for trace in (False, True) if open_loop else (False,):
            variant = serving._variant(seconds, trace) if open_loop else ""
            for seed in SEEDS:
                fp = fingerprint(workload, seed, replica, make(replica, seed, trace), variant)
                pins["datasets"][f"{dataset}@{replica.scale}"] = {
                    key: fp[key] for key in ("edges", "timestamps", "edge_digest")
                }
                pins["inputs"].setdefault(pin_key(fp), {})[str(seed)] = fp["input_digest"]
    PINS_PATH.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    print(f"wrote {PINS_PATH}")


if __name__ == "__main__":
    main()
