"""Seeded generators of graph sets.

Every generator draws from the ``random.Random`` it is given, so a workload
seed fixes every input.
"""

from __future__ import annotations

import random

from sct import Arc, ArcKind, FunSig, GraphSet, SizeChangeGraph


def signature(name: str, arity: int) -> FunSig:
    return FunSig(name, tuple(f"x{j}" for j in range(arity)))


def random_sigs(rng: random.Random, max_funs: int, max_arity: int) -> list[FunSig]:
    return [
        signature(f"f{i}", rng.randint(1, max_arity)) for i in range(rng.randint(1, max_funs))
    ]


def random_graph(rng: random.Random, source: FunSig, target: FunSig) -> SizeChangeGraph:
    """Each parameter pair gets a strict arc, a non-strict arc or none, 1:1:2."""
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
    rng: random.Random, max_funs: int, max_arity: int, max_graphs: int
) -> GraphSet:
    sigs = random_sigs(rng, max_funs, max_arity)
    graphs = [
        random_graph(rng, rng.choice(sigs), rng.choice(sigs))
        for _ in range(rng.randint(1, max_graphs))
    ]
    return GraphSet.of(graphs, sigs=sigs)


def random_functional_graph_set(
    rng: random.Random, max_funs: int, max_arity: int, max_graphs: int
) -> GraphSet:
    """At most one arc into each target parameter, so ``synthesize`` accepts it."""
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


def permutation_graph(
    rng: random.Random, sig: FunSig, partial: float, strict_fixpoint: bool
) -> SizeChangeGraph:
    """A random partial permutation of the parameters, about 1 arc in 4 strict.

    Each parameter keeps its arc with probability ``1 - partial``.  With
    ``strict_fixpoint`` parameter 0 maps to itself strictly in every graph,
    which makes every graph of the closure descend, so the set terminates.
    """
    low = 1 if strict_fixpoint else 0
    image = list(range(low, sig.arity))
    rng.shuffle(image)
    arcs = [Arc(0, ArcKind.STRICT, 0)] if strict_fixpoint else []
    for s, t in zip(range(low, sig.arity), image):
        if rng.random() < partial:
            continue
        kind = ArcKind.STRICT if rng.random() < 0.25 else ArcKind.NONSTRICT
        arcs.append(Arc(s, kind, t))
    return SizeChangeGraph(sig, sig, tuple(arcs))


def permutation_set(
    rng: random.Random, arity: int, partial: float, strict_fixpoint: bool
) -> GraphSet:
    """Three permutation graphs on one function ``f``."""
    sig = signature("f", arity)
    return GraphSet.of(
        [permutation_graph(rng, sig, partial, strict_fixpoint) for _ in range(3)],
        names=("P0", "P1", "P2"),
    )
