"""Seeded random generators shared across the test modules."""

from __future__ import annotations

import random

from sct import Arc, ArcKind, CompositionError, FunSig, GraphSet, SizeChangeGraph


def random_sigs(rng: random.Random, max_funs: int, max_arity: int) -> list[FunSig]:
    count = rng.randint(1, max_funs)
    return [
        FunSig(f"f{i}", tuple(f"p{j}" for j in range(rng.randint(1, max_arity))))
        for i in range(count)
    ]


def random_graph(rng: random.Random, source: FunSig, target: FunSig) -> SizeChangeGraph:
    arcs = []
    for s in range(source.arity):
        for t in range(target.arity):
            r = rng.random()
            if r < 0.25:
                arcs.append(Arc(s, ArcKind.STRICT, t))
            elif r < 0.5:
                arcs.append(Arc(s, ArcKind.NONSTRICT, t))
    return SizeChangeGraph(source, target, tuple(arcs))


def random_graph_set(
    rng: random.Random, max_funs: int = 2, max_arity: int = 2, max_graphs: int = 3
) -> GraphSet:
    sigs = random_sigs(rng, max_funs, max_arity)
    graphs = [
        random_graph(rng, rng.choice(sigs), rng.choice(sigs))
        for _ in range(rng.randint(1, max_graphs))
    ]
    return GraphSet.of(graphs, sigs=sigs)


def random_functional_graph_set(
    rng: random.Random, max_funs: int = 3, max_arity: int = 3, max_graphs: int = 5
) -> GraphSet:
    """Graph sets with at most one arc into each target parameter (synthesizable)."""
    sigs = random_sigs(rng, max_funs, max_arity)
    graphs = []
    for _ in range(rng.randint(1, max_graphs)):
        src, tgt = rng.choice(sigs), rng.choice(sigs)
        arcs = []
        for t in range(tgt.arity):
            if rng.random() < 0.6:
                kind = rng.choice((ArcKind.STRICT, ArcKind.NONSTRICT))
                arcs.append(Arc(rng.randrange(src.arity), kind, t))
        graphs.append(SizeChangeGraph(src, tgt, tuple(arcs)))
    return GraphSet.of(graphs, sigs=sigs)


def random_wide_graph_set(rng: random.Random, max_funs: int = 2, max_graphs: int = 3) -> GraphSet:
    """Graph sets on 70 to 72 parameters whose closures stay small.

    Each function has a core of three parameters, one of them past the 64th;
    a graph links the cores at random and every other parameter to itself,
    non-strictly, so rows and strict bits run past 64 bits.
    """
    sigs = [
        FunSig(f"f{i}", tuple(f"p{j}" for j in range(rng.randint(70, 72))))
        for i in range(rng.randint(1, max_funs))
    ]
    core = {s: rng.sample(range(64), 2) + [rng.randrange(64, s.arity)] for s in sigs}
    graphs = []
    for _ in range(rng.randint(1, max_graphs)):
        a, b = rng.choice(sigs), rng.choice(sigs)
        arcs = [
            Arc(p, ArcKind.NONSTRICT, p)
            for p in range(min(a.arity, b.arity))
            if p not in core[a] and p not in core[b]
        ]
        for s in core[a]:
            for t in core[b]:
                r = rng.random()
                if r < 0.5:
                    arcs.append(Arc(s, ArcKind.STRICT if r < 0.25 else ArcKind.NONSTRICT, t))
        graphs.append(SizeChangeGraph(a, b, tuple(arcs)))
    return GraphSet.of(graphs, sigs=sigs)


def random_cyclic_word(rng: random.Random, gs: GraphSet, max_len: int = 4):
    """A composable cyclic word over gs, or None if the random walk finds none."""
    for _ in range(50):
        start = rng.randrange(len(gs.graphs))
        word = [start]
        for _ in range(rng.randint(0, max_len - 1)):
            options = [
                j
                for j in range(len(gs.graphs))
                if gs.graphs[word[-1]].target == gs.graphs[j].source
            ]
            if not options:
                break
            word.append(rng.choice(options))
        if gs.graphs[word[-1]].target == gs.graphs[word[0]].source:
            return tuple(word)
    return None


def reference_compose(g0: SizeChangeGraph, g1: SizeChangeGraph) -> SizeChangeGraph:
    """Composition on `Arc` objects, the plain reference for the packed kernel."""
    if g0.target != g1.source:
        raise CompositionError("endpoints do not line up")
    by_src: dict[int, list[Arc]] = {}
    for b in g1.arcs:
        by_src.setdefault(b.src, []).append(b)
    best: dict[tuple[int, int], ArcKind] = {}
    for a in g0.arcs:
        for b in by_src.get(a.tgt, ()):
            # a two-step path decreases strictly as soon as one step does
            strict = ArcKind.STRICT in (a.kind, b.kind)
            key = (a.src, b.tgt)
            if best.get(key) is not ArcKind.STRICT:
                best[key] = ArcKind.STRICT if strict else ArcKind.NONSTRICT
    arcs = tuple(Arc(s, k, t) for (s, t), k in sorted(best.items()))
    return SizeChangeGraph(g0.source, g1.target, arcs)


def reference_closure(gs: GraphSet) -> list[tuple[SizeChangeGraph, tuple[int, ...]]]:
    """Breadth-first closure by `reference_compose`: (graph, witness) pairs in order.

    Graphs are told apart by their arcs, not by the kernel's equality.
    """
    order: list[tuple[SizeChangeGraph, tuple[int, ...]]] = []
    seen: set = set()

    def visit(g: SizeChangeGraph, word: tuple[int, ...]) -> None:
        if (g.source, g.target, g.arcs) not in seen:
            seen.add((g.source, g.target, g.arcs))
            order.append((g, word))

    for i, g in enumerate(gs.graphs):
        visit(g, (i,))
    for g, word in order:
        for j, base in enumerate(gs.graphs):
            if g.target == base.source:
                visit(reference_compose(g, base), word + (j,))
    return order
