"""Seeded synthetic feeders for the benchmark, generated in O(n).

Nodes 1..TRUNK_NODES form the main trunk, node 1 being the substation. Every
later node k hangs off node k-1 with probability CHAIN_BIAS, extending the
current lateral, and otherwise starts a new lateral at a uniformly chosen trunk
node. The bias gives laterals of realistic depth, like those of the Baran & Wu
test feeders. Because about (1 - CHAIN_BIAS) * n laterals spread evenly along
the trunk, the load each trunk branch carries, and with it the minimum voltage,
varies little from seed to seed; a uniformly chosen earlier node instead would
let a few early splits decide the voltage profile. The load scale is pinned per
workload so the feeders reach a realistic minimum voltage rather than
converging trivially.
"""
from __future__ import annotations

import json
import random

CHAIN_BIAS = 0.9
TRUNK_NODES = 200


def random_feeder(
    n: int, load_scale_kw: float, rng: random.Random
) -> list[tuple[int, int, float, float, float, float]]:
    """Closed branch rows ``(from, to, r_ohm, x_ohm, p_kw, q_kvar)`` of an
    n-node radial feeder rooted at node 1, branch k-1 feeding node k."""
    rows = []
    for k in range(2, n + 1):
        if k <= TRUNK_NODES or rng.random() < CHAIN_BIAS:
            parent = k - 1
        else:
            parent = rng.randrange(1, TRUNK_NODES + 1)
        r_ohm = rng.uniform(0.02, 0.2)
        x_ohm = r_ohm * rng.uniform(0.3, 1.0)
        p_kw = load_scale_kw * rng.random()
        q_kvar = p_kw * rng.uniform(0.5, 0.8)
        rows.append((parent, k, r_ohm, x_ohm, p_kw, q_kvar))
    return rows


def shuffled_json(
    rows: list[tuple[int, int, float, float, float, float]],
    rng: random.Random,
    kv_base: float,
    mva_base: float,
) -> tuple[str, list[tuple[int, int, float, float, float, float]], int]:
    """The feeder as a JSON network document with node ids, branch ids and row
    order all shuffled. Returns the text, the rows under the new node ids and
    the new root id."""
    n = len(rows) + 1
    node_ids = rng.sample(range(1, 3 * n), n)
    branch_ids = rng.sample(range(1, 3 * n), len(rows))
    relabelled = [
        (node_ids[s - 1], node_ids[r - 1], r_ohm, x_ohm, p, q)
        for s, r, r_ohm, x_ohm, p, q in rows
    ]
    order = list(range(len(rows)))
    rng.shuffle(order)
    doc = {
        "base": {"kv": kv_base, "mva": mva_base},
        "root": node_ids[0],
        "branches": [
            {
                "id": branch_ids[i],
                "from": relabelled[i][0],
                "to": relabelled[i][1],
                "r": relabelled[i][2],
                "x": relabelled[i][3],
                "p": relabelled[i][4],
                "q": relabelled[i][5],
            }
            for i in order
        ],
    }
    return json.dumps(doc), relabelled, node_ids[0]
