"""Independent reference load flow for checking the program's voltages.

A plain-``complex`` backward/forward sweep over a breadth-first node order,
iterated until no node voltage moves by more than 1e-10 p.u. It shares no code
with the package under test: it reads the bundled branch-table format itself,
does its own per-unit conversion and never imports ``radialflow``.
"""
from __future__ import annotations

BUS69 = "src/radialflow/data/bus69.branch"
# Bases the bundled feeders are published on (Baran & Wu, 1989).
KV_BASE = 12.66
MVA_BASE = 10.0

TOLERANCE = 1e-10
MAX_ITERATIONS = 200


def read_branch_file(text: str) -> list[tuple[int, int, float, float, float, float]]:
    """Closed rows ``(from, to, r_ohm, x_ohm, p_kw, q_kvar)`` of a delimited
    branch table; tie rows (branch number ending in ``*``) are left out."""
    rows = []
    for raw in text.splitlines():
        tokens = raw.split("#", 1)[0].replace(",", " ").split()
        if not tokens or tokens[0].endswith("*"):
            continue
        p, q = (float(tokens[5]), float(tokens[6])) if len(tokens) >= 7 else (0.0, 0.0)
        rows.append((int(tokens[1]), int(tokens[2]), float(tokens[3]), float(tokens[4]), p, q))
    return rows


def solve_reference(
    rows: list[tuple[int, int, float, float, float, float]],
    root: int,
    kv_base: float = KV_BASE,
    mva_base: float = MVA_BASE,
) -> tuple[dict[int, float], int]:
    """Voltage magnitude (p.u.) of every node, and the iterations taken.

    ``rows`` are closed branches in physical units; ids and row order are
    arbitrary, the tree is rebuilt from the root.
    """
    z_base = kv_base * kv_base / mva_base
    kw_base = mva_base * 1000.0
    out: dict[int, list[tuple[int, complex, complex]]] = {}
    for send, recv, r_ohm, x_ohm, p_kw, q_kvar in rows:
        out.setdefault(send, []).append(
            (recv, complex(r_ohm, x_ohm) / z_base, complex(p_kw, q_kvar) / kw_base)
        )
    order = [root]
    parent = [-1]
    z = [0j]
    s = [0j]
    i = 0
    while i < len(order):
        for recv, zb, sb in out.get(order[i], ()):
            order.append(recv)
            parent.append(i)
            z.append(zb)
            s.append(sb)
        i += 1
    if len(order) != len(rows) + 1:
        raise ValueError("branch rows do not form a tree rooted at the given root")

    n = len(order)
    v = [1 + 0j] * n
    for iteration in range(1, MAX_ITERATIONS + 1):
        current = [(sk / vk).conjugate() for sk, vk in zip(s, v)]
        for k in range(n - 1, 0, -1):
            current[parent[k]] += current[k]
        worst = 0.0
        for k in range(1, n):
            new = v[parent[k]] - z[k] * current[k]
            worst = max(worst, abs(new - v[k]))
            v[k] = new
        if worst <= TOLERANCE:
            return {node: abs(vk) for node, vk in zip(order, v)}, iteration
    raise ArithmeticError(f"reference sweep did not converge in {MAX_ITERATIONS} iterations")
