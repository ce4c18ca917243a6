"""Seeded inputs and the fingerprints that pin them.

Every input a workload feeds the program is made here from ``--seed``:
the replica's edge list (built by ``repro.datasets`` at a fixed dataset
seed, so only the query or trace side varies with ``--seed``), the query
lists and the open-loop traces.  Every query sink is temporally
reachable from its source, so every answer is a real solve.

A fingerprint names the dataset, its scale, its edge and timestamp
counts, a digest of the edge list and a digest of the query or trace
list.  ``pins.json`` holds the expected fingerprints; a mismatch stops
the run, so a change in ``repro.datasets`` cannot silently change what a
workload measures.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

from common import BENCH_DIR, BenchmarkError

PINS_PATH = BENCH_DIR / "pins.json"

#: The paper's delta settings, as fractions of |T|.
DELTA_FRACTIONS = (0.03, 0.06, 0.09)

EdgeRow = tuple[str, str, int, float]


@dataclass
class Replica:
    """A built replica: the live network plus its canonical edge rows."""

    name: str
    scale: float
    network: object
    rows: list[EdgeRow]
    num_timestamps: int
    t_max: int

    @property
    def deltas(self) -> tuple[int, ...]:
        return tuple(max(1, round(self.num_timestamps * f)) for f in DELTA_FRACTIONS)


def build_replica(name: str, scale: float = 1.0) -> Replica:
    """Build a replica through ``repro.datasets`` and warm its lazy indexes."""
    from repro.datasets.registry import make_dataset

    network = make_dataset(name, scale=scale)
    _ = network.timestamps  # the lazy per-node indexes
    rows = sorted(
        ((str(e.u), str(e.v), int(e.tau), float(e.capacity)) for e in network.edges()),
        key=lambda row: (row[2], row[0], row[1]),
    )
    return Replica(
        name=name,
        scale=scale,
        network=network,
        rows=rows,
        num_timestamps=network.num_timestamps,
        t_max=int(network.t_max),
    )


def digest(payload: object) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


def reachable_from(replica: Replica, source: str) -> list[str]:
    """Nodes a time-respecting path from ``source`` reaches in two or
    more hops (one sweep in timestamp order; value may wait at nodes)."""
    arrival = {source: -1}
    direct = set()
    for u, v, tau, _cap in replica.rows:
        at = arrival.get(u)
        if at is not None and at <= tau:
            if u == source:
                direct.add(v)
            if tau < arrival.get(v, tau + 1):
                arrival[v] = tau
    return sorted(node for node in arrival if node != source and node not in direct)


def random_pairs(
    replica: Replica,
    rng: random.Random,
    count: int,
    max_source_stamps: int | None = None,
    reach: dict[str, list[str]] | None = None,
) -> list[tuple[str, str]]:
    """``count`` distinct ``(source, sink)`` pairs: a uniform source with
    out-edges (and at most ``max_source_stamps`` distinct out-stamps),
    then a uniform sink among the nodes it reaches in two or more
    time-respecting hops (the paper's query selection, Section 6).
    ``reach`` caches :func:`reachable_from` per source for the caller."""
    stamps: dict[str, set[int]] = {}
    for u, _v, tau, _cap in replica.rows:
        stamps.setdefault(u, set()).add(tau)
    limit = max_source_stamps or len(replica.rows)
    sources = sorted(u for u, taus in stamps.items() if len(taus) <= limit)
    reach = {} if reach is None else reach
    pairs: list[tuple[str, str]] = []
    seen: set[tuple[str, str]] = set()
    while len(pairs) < count:
        source = sources[rng.randrange(len(sources))]
        if source not in reach:
            reach[source] = reachable_from(replica, source)
        sinks = reach[source]
        if not sinks:
            continue
        pair = (source, sinks[rng.randrange(len(sinks))])
        if pair not in seen:
            seen.add(pair)
            pairs.append(pair)
    return pairs


def spread_order(n: int) -> list[int]:
    """A permutation of ``range(n)`` whose every prefix is spread evenly
    over the range (bit-reversed counting)."""
    bits = max(1, (n - 1).bit_length())
    order = []
    for i in range(1 << bits):
        j = int(format(i, f"0{bits}b")[::-1], 2)
        if j < n:
            order.append(j)
    return order


def fingerprint(workload: str, seed: int, replica: Replica, inputs: object, variant: str = "") -> dict:
    """``variant`` names run parameters the inputs depend on (the open-loop
    traces depend on the run length and on tracing)."""
    return {
        "workload": workload,
        "variant": variant,
        "seed": seed,
        "dataset": replica.name,
        "scale": replica.scale,
        "edges": len(replica.rows),
        "timestamps": replica.num_timestamps,
        "edge_digest": digest(replica.rows),
        "input_digest": digest(inputs),
    }


def pin_key(fp: dict) -> str:
    return "@".join(str(part) for part in (fp["workload"], fp["scale"], fp["variant"]) if part != "")


def check_pins(fp: dict) -> None:
    """Compare a fingerprint with ``pins.json``; raise on any mismatch.

    The dataset part is pinned per ``dataset@scale`` for every seed; the
    input digest is pinned for the seeds listed under ``inputs``.
    """
    pins = json.loads(Path(PINS_PATH).read_text())
    key = f"{fp['dataset']}@{fp['scale']}"
    expected = pins["datasets"].get(key)
    if expected is not None:
        for name in ("edges", "timestamps", "edge_digest"):
            if expected[name] != fp[name]:
                raise BenchmarkError(
                    f"workload {fp['workload']}: dataset {key} changed: "
                    f"{name} is {fp[name]!r}, pinned {expected[name]!r}"
                )
    pinned_input = pins["inputs"].get(pin_key(fp), {})
    want = pinned_input.get(str(fp["seed"]))
    if want is not None and want != fp["input_digest"]:
        raise BenchmarkError(
            f"workload {fp['workload']} seed {fp['seed']}: inputs "
            f"changed: digest {fp['input_digest']}, pinned {want}"
        )
