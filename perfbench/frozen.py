"""Frozen benchmark inputs: loading, digest check and the roundtrip variants.

Every input reaches the program as PD JSON text.  The ladders run the frozen
catalog diagrams unchanged, because the packing results depend on crossing
order (chain-21 gives 12, 16, 17 or 22 good cusps of 23 under four orders)
and their baselines are stated for catalog order; the seed only fixes the
order the items run in.  The roundtrip items are fixed variants of a frozen
pool, each with a crossing-order shuffle, a rotation by two and an edge
relabelling; the seed orders them too.  Which variants fail depends on the
shuffle, so drawing the shuffles from the seed would make the failure count
depend on the seed.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

INPUTS = Path(__file__).resolve().parent / "inputs.json"


def digest(data) -> str:
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def load_file(path: Path = INPUTS) -> dict:
    return json.loads(path.read_text())


def load(path: Path = INPUTS) -> dict:
    """The frozen inputs, after checking them against their recorded digest."""
    doc = load_file(path)
    if digest(doc["inputs"]) != doc["digest"]:
        raise ValueError(f"{path} does not match its recorded digest")
    return doc["inputs"]


def transform(pd_json: str, rng: random.Random) -> str:
    """The same diagram with shuffled crossings, random rotations by two and
    relabelled edges, as PD JSON without a components map."""
    crossings = json.loads(pd_json)["pd"]
    rng.shuffle(crossings)
    crossings = [c[2:] + c[:2] if rng.random() < 0.5 else c for c in crossings]
    edges = sorted({e for c in crossings for e in c})
    labels = list(range(1, len(edges) + 1))
    rng.shuffle(labels)
    relabel = dict(zip(edges, labels))
    return json.dumps({"pd": [[relabel[e] for e in c] for c in crossings]})


def roundtrip_items(pool: list[dict], seed: int, copies: int) -> list[tuple]:
    """The roundtrip items, (name, input, reshuffled), in the seed's order.

    Each pool diagram gives `copies` variants; variant j of a diagram is the
    same for every seed, so every seed runs the same items."""
    items = []
    for base in pool:
        for j in range(copies):
            rng = random.Random(f"variant/{base['name']}/{j}")
            items.append((f"{base['name']}#{j}", transform(base["pd"], rng),
                          transform(base["pd"], rng)))
    random.Random(seed).shuffle(items)
    return items
