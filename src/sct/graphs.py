"""Size-change graphs and their composition algebra.

A size-change graph relates the parameters of a caller to the parameters of a
callee: a strict arc records "the target value is strictly smaller", a
non-strict arc records "the target value is not larger".  Finite sets of such
graphs generate a finite semigroup under composition; termination is decided
by inspecting the idempotent elements of that semigroup.
"""

from __future__ import annotations

from collections import defaultdict
from enum import Enum
from typing import Callable, Iterable, Optional, Sequence

from .record import record


class CompositionError(ValueError):
    """Endpoints of graphs (or of words of graphs) do not line up."""


class ArcKind(Enum):
    STRICT = "strict"
    NONSTRICT = "nonstrict"

    def __repr__(self) -> str:
        return self.name


@record
class FunSig:
    """A function name together with its ordered parameter list."""

    name: str
    params: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.params:
            raise ValueError(f"function {self.name!r} needs at least one parameter")
        if len(set(self.params)) != len(self.params):
            raise ValueError(f"function {self.name!r} has repeated parameters")

    @property
    def arity(self) -> int:
        return len(self.params)

    def index_of(self, param: str) -> int:
        try:
            return self.params.index(param)
        except ValueError:
            raise ValueError(f"{param!r} is not a parameter of {self.name}") from None


@record
class Arc:
    src: int
    kind: ArcKind
    tgt: int


class SizeChangeGraph:
    """Bipartite arc set between the parameters of two signatures.

    Stored as one int per source parameter: in row i, bit t means "i reaches
    target t" and bit ``t + target.arity`` means "i reaches target t
    strictly".  Equality compares rows, then signatures, and the hash is
    taken from both.  ``arcs`` is a derived view, sorted by (src, tgt).
    """

    __slots__ = ("source", "target", "rows", "_arcs")

    def __new__(cls, source: FunSig, target: FunSig, arcs: Iterable[Arc]) -> "SizeChangeGraph":
        arcs = tuple(sorted(arcs, key=lambda a: (a.src, a.tgt)))
        last = None
        for a in arcs:
            if not (0 <= a.src < source.arity and 0 <= a.tgt < target.arity):
                raise ValueError(
                    f"arc {a.src}->{a.tgt} out of range for {source.name}->{target.name}"
                )
            if (a.src, a.tgt) == last:
                raise ValueError(f"two arcs between parameters {a.src} and {a.tgt}")
            last = (a.src, a.tgt)
        g = cls._of_triples(source, target, ((a.src, a.kind is ArcKind.STRICT, a.tgt) for a in arcs))
        object.__setattr__(g, "_arcs", arcs)  # already the sorted view
        return g

    @classmethod
    def _of_triples(
        cls, source: FunSig, target: FunSig, triples: Iterable[tuple[int, bool, int]]
    ) -> "SizeChangeGraph":
        """A graph from (source index, strict, target index) triples already known
        to be in range and on distinct pairs; nothing is checked."""
        n = target.arity
        rows = [0] * source.arity
        for s, strict, t in triples:
            rows[s] |= (1 | strict << n) << t
        return cls._of_rows(source, target, tuple(rows))

    @classmethod
    def _of_rows(cls, source: FunSig, target: FunSig, rows: tuple[int, ...]) -> "SizeChangeGraph":
        """A graph from rows already known to be valid; nothing is checked."""
        g = object.__new__(cls)
        init = object.__setattr__
        init(g, "source", source)
        init(g, "target", target)
        init(g, "rows", rows)
        return g

    def __setattr__(self, name: str, *_: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __hash__(self) -> int:
        return hash((self.source, self.target, self.rows))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SizeChangeGraph):
            return NotImplemented
        return (
            self.rows == other.rows
            and (self.source is other.source or self.source == other.source)
            and (self.target is other.target or self.target == other.target)
        )

    def __repr__(self) -> str:
        return f"SizeChangeGraph({self.source!r}, {self.target!r}, {self.arcs!r})"

    def __reduce__(self) -> tuple:
        return SizeChangeGraph._of_rows, (self.source, self.target, self.rows)

    @property
    def arcs(self) -> tuple[Arc, ...]:
        try:
            return self._arcs
        except AttributeError:
            n = self.target.arity
            arcs = []
            for s, r in enumerate(self.rows):
                reach = r & ((1 << n) - 1)
                while reach:  # one step per arc, lowest target first
                    t = (reach & -reach).bit_length() - 1
                    arcs.append(Arc(s, ArcKind.STRICT if r >> (t + n) & 1 else ArcKind.NONSTRICT, t))
                    reach &= reach - 1
            object.__setattr__(self, "_arcs", tuple(arcs))
            return self._arcs

    @classmethod
    def from_names(
        cls,
        source: FunSig,
        target: FunSig,
        arcs: Iterable[tuple[str, str, str]],
    ) -> "SizeChangeGraph":
        """Build a graph from (param, "strict" | "nonstrict", param) triples."""
        return cls(
            source,
            target,
            tuple(
                Arc(source.index_of(s), ArcKind(kind), target.index_of(t))
                for s, kind, t in arcs
            ),
        )

    def strict_self_params(self) -> tuple[int, ...]:
        n = self.target.arity
        return tuple(i for i, r in enumerate(self.rows) if r >> (i + n) & 1)

    def __str__(self) -> str:
        rel = {ArcKind.STRICT: ">", ArcKind.NONSTRICT: ">="}
        body = ", ".join(
            f"{self.source.params[a.src]}{rel[a.kind]}{self.target.params[a.tgt]}"
            for a in self.arcs
        )
        return f"{self.source.name}->{self.target.name}{{{body}}}"


def _product(rows0: Sequence[int], rows1: Sequence[int], m: int, n: int) -> tuple[int, ...]:
    """The rows of g0;g1 from the rows of g0 (into m parameters) and g1 (m into n).

    A Boolean matrix product: a row of g0 ORs together the g1 rows it
    reaches (bringing their strict bits), and the reach bits of the g1 rows
    it reaches strictly become strict bits.
    """
    low_m, low_n = (1 << m) - 1, (1 << n) - 1
    out = []
    for r in rows0:
        acc = strict = 0
        reach, strict_reach = r & low_m, r >> m
        while reach:
            bit = reach & -reach
            row = rows1[bit.bit_length() - 1]
            acc |= row
            if strict_reach & bit:
                strict |= row
            reach ^= bit
        out.append(acc | (strict & low_n) << n)
    return tuple(out)


def _is_idempotent(rows: Sequence[int], n: int) -> bool:
    """Whether the endo-graph with these rows (on n parameters) equals its square.

    The square is built one row at a time, as ``_product(rows, rows, n, n)``
    builds it, and the test stops at the first row that differs from ``rows``.
    It is kept apart from ``_product`` so the shared kernel has no early exit
    to test on behalf of one caller.
    """
    low = (1 << n) - 1
    for r in rows:
        acc = strict = 0
        reach, strict_reach = r & low, r >> n
        while reach:
            bit = reach & -reach
            row = rows[bit.bit_length() - 1]
            acc |= row
            if strict_reach & bit:
                strict |= row
            reach ^= bit
        if acc | (strict & low) << n != r:
            return False
    return True


def _has_strict_diagonal(rows: Sequence[int], n: int) -> bool:
    """Whether some row i has its strict bit for target i (targets of arity n)."""
    for i, r in enumerate(rows):
        if r >> (i + n) & 1:
            return True
    return False


class _FanOut(dict):
    """The rows of r;g1 for every right factor g1 leaving one signature, keyed by the left row r.

    A value is the tuple of product rows, one per right factor in the order
    given, so the rows of an element's successors are ``zip(*map(fan, left))``:
    one lookup per left row.  A row not seen yet is computed with ``_product``
    and kept, so a map holds only the rows its caller meets, at most 3**m.
    """

    __slots__ = ("rights", "m")

    def __init__(self, m: int, rights: Sequence[tuple[tuple[int, ...], int]]) -> None:
        super().__init__()
        self.m, self.rights = m, rights  # (rows of g1, arity of its target)

    def __missing__(self, row: int) -> tuple[int, ...]:
        m = self.m
        self[row] = out = tuple(_product((row,), right, m, n)[0] for right, n in self.rights)
        return out


def _fan_outs(
    sigs: Sequence[FunSig], bases: Sequence[tuple[int, int, int, tuple[int, ...]]]
) -> list[tuple[list[tuple[int, int]], Callable[[int], tuple[int, ...]]]]:
    """Per signature index: the (base index, target index) pairs of the bases
    leaving it, in the order of ``bases``, and the lookup of its fan-out map.

    ``bases`` holds (base index, source index, target index, rows).
    """
    out = []
    for k, sig in enumerate(sigs):
        leaving = [(j, t, rows) for j, s, t, rows in bases if s == k]
        fan = _FanOut(sig.arity, [(rows, sigs[t].arity) for _, t, rows in leaving])
        out.append(([(j, t) for j, t, _ in leaving], fan.__getitem__))
    return out


def compose(g0: SizeChangeGraph, g1: SizeChangeGraph) -> SizeChangeGraph:
    """Compose two graphs along their shared middle signature.

    The result has an arc x->z whenever some middle parameter y links them;
    the arc is strict if any linking pair has a strict step, and non-strict
    only if every linking pair is non-strict on both steps.
    """
    if g0.target != g1.source:
        raise CompositionError(
            f"cannot compose {g0.source.name}->{g0.target.name} "
            f"with {g1.source.name}->{g1.target.name}"
        )
    rows = _product(g0.rows, g1.rows, g1.source.arity, g1.target.arity)
    return SizeChangeGraph._of_rows(g0.source, g1.target, rows)


def idempotent_power(g: SizeChangeGraph) -> tuple[SizeChangeGraph, int]:
    """Return the unique idempotent among the powers of g, with its exponent.

    The cyclic semigroup generated by g has at most 3**(arity**2) elements,
    so the least idempotent exponent is bounded by that count.  The bound is
    computed only once the exponent passes arity**2, as at a large arity
    the power alone costs seconds.  Each power is tested by ``_is_idempotent``,
    the criterion's test, which stops at the first row its square changes.
    """
    if g.source != g.target:
        raise CompositionError("only graphs with equal source and target have powers")
    n = g.source.arity
    limit = n ** 2  # replaced by the bound once passed
    power, exponent = g, 1
    while not _is_idempotent(power.rows, n):
        if exponent >= limit:
            bound = 3 ** (n ** 2)
            if exponent >= bound:
                raise AssertionError("no idempotent power within the semigroup bound")
            limit = bound
        power = compose(power, g)
        exponent += 1
    return power, exponent


@record
class GraphSet:
    """A finite indexed family of graphs over a shared set of signatures."""

    sigs: tuple[FunSig, ...]
    graphs: tuple[SizeChangeGraph, ...]
    names: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.names) != len(self.graphs):
            raise ValueError("need exactly one name per graph")
        if len(set(self.names)) != len(self.names):
            raise ValueError("graph names must be distinct")
        if len({s.name for s in self.sigs}) != len(self.sigs):
            raise ValueError("function names must be distinct")
        for g in self.graphs:
            if g.source not in self.sigs or g.target not in self.sigs:
                raise ValueError("graph endpoints must be drawn from the listed signatures")

    @classmethod
    def of(
        cls,
        graphs: Iterable[SizeChangeGraph],
        names: Optional[Iterable[str]] = None,
        sigs: Optional[Iterable[FunSig]] = None,
    ) -> "GraphSet":
        graphs = tuple(graphs)
        if sigs is None:
            found: list[FunSig] = []
            for g in graphs:
                for sig in (g.source, g.target):
                    if sig not in found:
                        found.append(sig)
            sigs = found
        if names is None:
            names = tuple(f"g{i}" for i in range(len(graphs)))
        return cls(tuple(sigs), graphs, tuple(names))

    def __len__(self) -> int:
        return len(self.graphs)

    def word_names(self, word: Iterable[int]) -> list[str]:
        return [self.names[i] for i in word]


@record
class DerivedGraph:
    """A closure element: its graph and the word of base-graph indices that composes to it."""

    graph: SizeChangeGraph
    witness: tuple[int, ...]


class Closure:
    """The composition closure of a graph set, as flat lists in breadth-first order.

    Element k is ``keys[k]``, its (source index, target index, rows) with
    indices into ``gs.sigs``; it extends element ``parents[k]`` (-1 for a
    base graph) by the base graph ``lasts[k]``.  No graph object is built
    until a caller reads one: ``element(k)`` alone, or all of ``elements``
    at once.  The empty set closes to no element.
    """

    __slots__ = ("gs", "keys", "parents", "lasts", "_elements")

    def __init__(
        self,
        gs: GraphSet,
        keys: list[tuple[int, int, tuple[int, ...]]],
        parents: list[int],
        lasts: list[int],
    ) -> None:
        self.gs, self.keys, self.parents, self.lasts = gs, keys, parents, lasts
        self._elements: Optional[tuple[DerivedGraph, ...]] = None

    def __len__(self) -> int:
        return len(self.keys)

    def witness(self, k: int) -> tuple[int, ...]:
        """The witness word of element k, 0 <= k < len(self); -1 gives the empty word."""
        word = []
        while k >= 0:
            word.append(self.lasts[k])
            k = self.parents[k]
        return tuple(reversed(word))

    @property
    def witness_bound(self) -> int:
        # breadth-first order: witness lengths never decrease along elements
        return len(self.witness(len(self) - 1))

    def element(self, k: int) -> DerivedGraph:
        """Element k, built alone unless ``elements`` has been read."""
        if self._elements is not None:
            return self._elements[k]
        k = range(len(self))[k]  # a negative k counts from the end, as for elements
        return DerivedGraph(self._graph(self.keys[k]), self.witness(k))

    @property
    def elements(self) -> tuple[DerivedGraph, ...]:
        if self._elements is None:
            words: list[tuple[int, ...]] = []
            for parent, last in zip(self.parents, self.lasts):  # a parent comes first
                words.append((words[parent] if parent >= 0 else ()) + (last,))
            self._elements = tuple(map(DerivedGraph, map(self._graph, self.keys), words))
        return self._elements

    def _graph(self, key: tuple[int, int, tuple[int, ...]]) -> SizeChangeGraph:
        sigs = self.gs.sigs
        return SizeChangeGraph._of_rows(sigs[key[0]], sigs[key[1]], key[2])


def closure(gs: GraphSet) -> Closure:
    """Close a graph set under composition, tracking a witness word per element.

    Breadth-first extension by base graphs visits candidate words in shortlex
    order, so each element carries the shortlex-least witness among the
    derivations the fixpoint discovers, and the result is deterministic.
    Candidates are told apart by (source index, target index, rows), kept
    as one set of rows per (source, target), so a candidate is tested by its
    rows alone.  An element is kept as its key, its parent's index and its
    last base graph; no graph object is built.  Every right factor is a base
    graph, so an element reaches all its successors through the fan-out map
    of its target signature, one lookup per row, and through the successor
    list of its (source, target) pair, made on first use: each base graph
    that can follow, with its target and the set its products go into.
    """
    index = {sig: k for k, sig in enumerate(gs.sigs)}
    bases = [(j, index[g.source], index[g.target], g.rows) for j, g in enumerate(gs.graphs)]
    # per middle signature: its successor lists by source index, made on first
    # use, the (base index, target index) pairs leaving it, and its fan-out
    after = [({}, leaving, fan) for leaving, fan in _fan_outs(gs.sigs, bases)]
    seen: defaultdict[tuple[int, int], set[tuple[int, ...]]] = defaultdict(set)
    keys: list[tuple[int, int, tuple[int, ...]]] = []
    parents: list[int] = []
    lasts: list[int] = []
    for j, src, tgt, rows in bases:
        found = seen[src, tgt]
        if rows not in found:
            found.add(rows)
            keys.append((src, tgt, rows))
            parents.append(-1)
            lasts.append(j)
    push_key, push_parent, push_last = keys.append, parents.append, lasts.append
    # keys doubles as the queue: it is walked while it grows
    for i, (src, mid, left) in enumerate(keys):
        lists, leaving, fan = after[mid]
        succ = lists.get(src)
        if succ is None:
            succ = lists[src] = [(j, tgt, seen[src, tgt]) for j, tgt in leaving]
        for (j, tgt, found), rows in zip(succ, zip(*map(fan, left))):
            if rows not in found:
                found.add(rows)
                push_key((src, tgt, rows))
                push_parent(i)
                push_last(j)
    return Closure(gs, keys, parents, lasts)


@record
class LassoMultipath:
    """An ultimately periodic multipath: a finite prefix word and a repeated period word."""

    prefix: tuple[int, ...]
    period: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.period:
            raise ValueError("lasso period must be nonempty")

    def graph_index_at(self, position: int) -> int:
        if position < len(self.prefix):
            return self.prefix[position]
        return self.period[(position - len(self.prefix)) % len(self.period)]


@record
class DescentWitness:
    """The parameters that decrease strictly once per block of periods, forever.

    ``params`` lists, ascending, every parameter with a strict self-arc in the
    idempotent power of the period; it is never empty.
    """

    params: tuple[int, ...]
    start: int
    block_len: int


@record
class Verdict:
    """Outcome of the termination criterion.

    On failure carries the first closure idempotent without a strict self-arc
    (in shortlex witness order) and the lasso repeating its witness word.
    """

    sct: bool
    failing_idempotent: Optional[DerivedGraph] = None
    lasso: Optional[LassoMultipath] = None


def _check_lasso(lasso: LassoMultipath, gs: GraphSet) -> None:
    word = lasso.prefix + lasso.period + lasso.period
    for i in word:
        if not 0 <= i < len(gs.graphs):
            raise CompositionError(f"graph index {i} out of range")
    for a, b in zip(word, word[1:]):
        if gs.graphs[a].target != gs.graphs[b].source:
            raise CompositionError(
                f"lasso word is not composable at {gs.names[a]};{gs.names[b]}"
            )


def decide_periodic_descent(
    lasso: LassoMultipath, gs: GraphSet
) -> Optional[DescentWitness]:
    """Decide whether the infinite multipath prefix.period^w has infinite descent.

    The period composition generates a finite cyclic semigroup; the multipath
    has a thread with infinitely many strict arcs exactly when the idempotent
    power of that composition has a strict self-arc.
    """
    _check_lasso(lasso, gs)
    first, *rest = lasso.period  # LassoMultipath rules out an empty period
    value = gs.graphs[first]
    for i in rest:
        value = compose(value, gs.graphs[i])
    stable, exponent = idempotent_power(value)
    strict = stable.strict_self_params()
    if not strict:
        return None
    return DescentWitness(params=strict, start=len(lasso.prefix), block_len=exponent)


def check_sct_criterion(gs: GraphSet, cl: Optional[Closure] = None) -> Verdict:
    """Terminating iff every idempotent in the closure has a strict self-arc.

    Each endo-element is decided on its key: first the strict diagonal, read
    from the rows, then, only without one, ``_is_idempotent``, which stops at
    the first row of the square that differs.  Only the first failing
    idempotent is built as a graph.
    """
    if cl is None:
        cl = closure(gs)
    arity = [sig.arity for sig in cl.gs.sigs]
    for k, (src, tgt, rows) in enumerate(cl.keys):
        if src != tgt:
            continue
        n = arity[src]
        if not _has_strict_diagonal(rows, n) and _is_idempotent(rows, n):
            dg = cl.element(k)
            lasso = LassoMultipath((), dg.witness)
            # a failing idempotent must also be descent-free as a lasso
            if decide_periodic_descent(lasso, gs) is not None:
                raise AssertionError("failing idempotent has a descent as a lasso")
            return Verdict(False, failing_idempotent=dg, lasso=lasso)
    return Verdict(True)

