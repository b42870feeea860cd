"""Size-change graphs and their composition algebra.

A size-change graph relates the parameters of a caller to the parameters of a
callee: a strict arc records "the target value is strictly smaller", a
non-strict arc records "the target value is not larger".  Finite sets of such
graphs generate a finite semigroup under composition; termination is decided
by inspecting the idempotent elements of that semigroup.
"""

from __future__ import annotations

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
    strictly".  Equality compares rows, then signatures; the hash is computed
    on first use.  ``arcs`` is a derived view, sorted by (src, tgt).
    """

    __slots__ = ("source", "target", "rows", "_hash", "_arcs")

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
        # computed on first use: closure elements are told apart by rows and
        # most are never hashed
        try:
            return self._hash
        except AttributeError:
            h = hash((self.source, self.target, self.rows))
            object.__setattr__(self, "_hash", h)
            return h

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

    def has_strict_self_arc(self) -> bool:
        return _has_strict_diagonal(self.rows, self.target.arity)

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
    out = []
    for r in rows0:
        acc = strict = 0
        reach = r & ((1 << m) - 1)
        while reach:
            bit = reach & -reach
            row = rows1[bit.bit_length() - 1]
            acc |= row
            if r >> m & bit:
                strict |= row
            reach ^= bit
        out.append(acc | (strict & ((1 << n) - 1)) << n)
    return tuple(out)


def _has_strict_diagonal(rows: Sequence[int], n: int) -> bool:
    """Whether some row i has its strict bit for target i (targets of arity n)."""
    for i, r in enumerate(rows):
        if r >> (i + n) & 1:
            return True
    return False


class _RowMap(dict):
    """The rows of r;g1 for one right factor g1, keyed by the left row r.

    A lookup of a row not seen yet computes it with ``_product`` and keeps
    it, so a map holds only the rows its caller meets, at most 3**m of them.
    """

    __slots__ = ("right", "m", "n")

    def __init__(self, right: tuple[int, ...], m: int, n: int) -> None:
        super().__init__()
        self.right, self.m, self.n = right, m, n

    def __missing__(self, row: int) -> int:
        self[row] = out = _product((row,), self.right, self.m, self.n)[0]
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
    so the least idempotent exponent is bounded by that count.
    """
    if g.source != g.target:
        raise CompositionError("only graphs with equal source and target have powers")
    bound = 3 ** (g.source.arity ** 2)
    power = g
    for exponent in range(1, bound + 1):
        if compose(power, power) == power:
            return power, exponent
        power = compose(power, g)
    raise AssertionError("no idempotent power within the semigroup bound")


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


class DerivedGraph:
    """A closure element: its graph, the element it extends and the base graph appended.

    ``parent`` is None for a base graph.  The witness word is built on demand
    by walking the parents; equality is identity, as each closure element is
    built once.
    """

    __slots__ = ("graph", "parent", "last")

    def __init__(self, graph: SizeChangeGraph, parent: Optional["DerivedGraph"], last: int) -> None:
        self.graph = graph
        self.parent = parent
        self.last = last

    def __repr__(self) -> str:
        return f"DerivedGraph({self.graph!r}, witness={self.witness!r})"

    @property
    def witness(self) -> tuple[int, ...]:
        """The word of base-graph indices that composes to the graph."""
        word = []
        dg: Optional[DerivedGraph] = self
        while dg is not None:
            word.append(dg.last)
            dg = dg.parent
        return tuple(reversed(word))


@record
class Closure:
    elements: tuple[DerivedGraph, ...]

    def __len__(self) -> int:
        return len(self.elements)

    @property
    def witness_bound(self) -> int:
        # breadth-first order: witness lengths never decrease along elements
        return len(self.elements[-1].witness)


def closure(gs: GraphSet) -> Closure:
    """Close a graph set under composition, tracking a witness word per element.

    Breadth-first extension by base graphs visits candidate words in shortlex
    order, so each element carries the shortlex-least witness among the
    derivations the fixpoint discovers, and the result is deterministic.
    Candidates are told apart by (source index, target index, rows), so a
    graph object is built only for a new element.  Every right factor is a
    base graph, so each element is extended through one row map per base
    graph: a lookup per row.
    """
    if not gs.graphs:
        raise ValueError("cannot close an empty graph set")
    index = {sig: k for k, sig in enumerate(gs.sigs)}
    arity = [sig.arity for sig in gs.sigs]
    # base graphs by source index: (base index, target index, target, row lookup)
    by_source: list[list[tuple[int, int, FunSig, Callable[[int], int]]]] = [[] for _ in gs.sigs]
    seen: set[tuple[int, int, tuple[int, ...]]] = set()
    # (source index, target index, element), in breadth-first order; it
    # doubles as the queue: it is walked while it grows
    order: list[tuple[int, int, DerivedGraph]] = []
    for j, g in enumerate(gs.graphs):
        src, tgt = index[g.source], index[g.target]
        lookup = _RowMap(g.rows, arity[src], arity[tgt]).__getitem__
        by_source[src].append((j, tgt, g.target, lookup))
        if (src, tgt, g.rows) not in seen:
            seen.add((src, tgt, g.rows))
            order.append((src, tgt, DerivedGraph(g, None, j)))
    for src, mid, dg in order:
        g = dg.graph
        left = g.rows
        for j, tgt, target, lookup in by_source[mid]:
            rows = tuple(map(lookup, left))
            key = (src, tgt, rows)
            if key not in seen:
                seen.add(key)
                comp = SizeChangeGraph._of_rows(g.source, target, rows)
                order.append((src, tgt, DerivedGraph(comp, dg, j)))
    return Closure(tuple(dg for _, _, dg in order))


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
    """Terminating iff every idempotent in the closure has a strict self-arc."""
    if not gs.graphs:
        return Verdict(True)
    if cl is None:
        cl = closure(gs)
    for dg in cl.elements:
        g = dg.graph
        source, target = g.source, g.target
        if not (source is target or source == target):
            continue
        rows, n = g.rows, target.arity
        if not _has_strict_diagonal(rows, n) and _product(rows, rows, n, n) == rows:
            lasso = LassoMultipath((), dg.witness)
            # a failing idempotent must also be descent-free as a lasso
            if decide_periodic_descent(lasso, gs) is not None:
                raise AssertionError("failing idempotent has a descent as a lasso")
            return Verdict(False, failing_idempotent=dg, lasso=lasso)
    return Verdict(True)

