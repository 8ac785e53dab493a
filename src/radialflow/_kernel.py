"""The pass loop generated for one tree: solver._sweep's generic loop
written out with one local variable per node and branch value, compiled
once.

solver._sweep imports this module when it first generates a loop, for a tree
its generic loop has swept solver._KERNEL_PASSES passes, so a process that
never sweeps a tree that often (the CLI's every run) neither compiles this
module nor loads ast.
"""
from __future__ import annotations

import ast
import math


def generated_sweep(tree, loaded: list[int]):
    """The generic loop of solver._sweep written out for one tree and one
    set of loaded node positions, compiled: a function of (conj(S) of the
    loaded nodes in the order of loaded, the z column, max_iterations,
    tolerance) that returns what _sweep returns, or None for a zero voltage
    at a loaded node, a non-finite magnitude sum or no convergence.

    Each node's voltage, magnitude, load current and accumulator and each
    branch's current and impedance is a local named by its position (v3,
    m3, l3, a3, b2, z2), and the arithmetic is the generic loop's, in its
    order: a leaf's accumulator and an unloaded node's load current are the
    literal 0j, so 0j + still turns a -0.0 part into +0.0, and the add into
    the root's accumulator, which nothing reads, is left out. The text holds
    only fixed code and names built from integer positions. It is parsed a
    few statements at a time into one syntax tree, which is compiled once.
    """
    send, recv, root = tree.send, tree.recv, tree.root
    nodes = range(len(tree.feeding))
    branches = range(len(send))
    senders = set(send)
    is_loaded = set(loaded)

    def names(prefix, positions, sep=", "):
        return sep.join(f"{prefix}{i}" for i in positions)

    setup = [
        f"[{names('s', loaded)}] = s",
        f"[{names('z', branches)}] = z",
        f"{names('v', nodes, ' = ')} = (1+0j)",
        f"{names('m', [i for i in nodes if i != root], ' = ')} = 1.0",
    ]
    # one pass; only the load currents' division can raise ZeroDivisionError
    body = [f"l{i} = s{i} / v{i}.conjugate()" for i in loaded]
    summed = set()
    for k in reversed(branches):
        r, s = recv[k], send[k]
        body.append(f"b{k} = {f'a{r}' if r in senders else '0j'} + "
                    f"{f'l{r}' if r in is_loaded else '0j'}")
        if s != root:
            body.append(f"a{s} += b{k}" if s in summed else f"a{s} = 0j + b{k}")
            summed.add(s)
    body.append("max_delta = 0.0")
    for k in branches:
        s, r = send[k], recv[k]
        body += [f"v{r} = v{s} - b{k} * z{k}", f"g = hypot(v{r}.real, v{r}.imag)",
                 f"d = abs(g - m{r})", "if d > max_delta:\n max_delta = d", f"m{r} = g"]
    magnitudes = ", ".join("1.0" if i == root else f"m{i}" for i in nodes)
    currents = ", ".join(f"l{i}" if i in is_loaded else "0j" for i in nodes)
    body += [
        f"if not isfinite(sum(({magnitudes},))):\n return None",
        "deltas.append(max_delta)",
        f"if max_delta <= tolerance:\n return (iterations, deltas, 0.0, [{names('v', nodes)}], "
        f"[{currents}], [{names('b', branches)}])",
    ]
    def parsed(statements):
        # the parser holds some 700 bytes per token until it returns, and the
        # allocator keeps what it freed: 32 statements at a time, the process
        # keeps about half the memory that parsing the whole text would leave
        return [node for k in range(0, len(statements), 32)
                for node in ast.parse("\n".join(statements[k:k + 32])).body]

    module = ast.parse("\n".join([
        "def sweep(s, z, max_iterations, tolerance):",
        " hypot = math.hypot",
        " isfinite = math.isfinite",
        " deltas = []",
        " try:",
        "  for iterations in range(1, max_iterations + 1):",
        "   pass",
        " except ZeroDivisionError:",
        "  return None",
    ]))
    sweep = module.body[0]
    sweep.body[3:3] = parsed(setup)
    sweep.body[-1].body[0].body = parsed(body)
    namespace = {"math": math}
    exec(compile(module, "<generated sweep>", "exec"), namespace)
    return namespace.pop("sweep")
