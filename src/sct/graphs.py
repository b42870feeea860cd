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

from .record import _frozen, record


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
    strictly".  The rows are the only store: the constructor checks each
    arc's kind and indices and keeps nothing else, and ``arcs`` is decoded
    from the rows on first read, sorted by (src, tgt).  Equality compares
    rows, then signatures, and the hash is taken from both.
    """

    __slots__ = ("source", "target", "rows", "_arcs")

    def __new__(cls, source: FunSig, target: FunSig, arcs: Iterable[Arc]) -> "SizeChangeGraph":
        m, n = source.arity, target.arity
        rows = [0] * m
        for a in arcs:
            s, t = a.src, a.tgt
            if not (isinstance(s, int) and isinstance(t, int) and isinstance(a.kind, ArcKind)):
                raise ValueError(f"malformed arc {a!r}: indices are ints and the kind an ArcKind")
            if not (0 <= s < m and 0 <= t < n):
                raise ValueError(f"arc {s}->{t} out of range for {source.name}->{target.name}")
            if rows[s] >> t & 1:
                raise ValueError(f"two arcs between parameters {s} and {t}")
            rows[s] |= (1 | (a.kind is ArcKind.STRICT) << n) << t
        return cls._of_rows(source, target, tuple(rows))

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

    __setattr__ = __delattr__ = _frozen

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


def _row_alphabet(sigs: Sequence[FunSig], bases: Sequence[tuple[int, int, int, tuple[int, ...]]]):
    """Number the rows met over each signature in first-met order, closed under the bases.

    ``bases`` holds (base index, source index, target index, rows).  Returns
    per signature its rows by id; per base the ids of its rows; and per
    signature the (base index, target index) of each base g leaving it and
    their tables, the table of g giving the id of r;g by the id of r.  Each
    round multiplies the rows new to a signature by each base leaving it, in
    one ``_product``.
    """
    arity = [len(sig.params) for sig in sigs]
    ids: list[dict[int, int]] = [{} for _ in sigs]  # per signature: row -> id, in id order
    for _, _, t, g in bases:
        for r in g:
            ids[t].setdefault(r, len(ids[t]))
    leaving: list[list] = [[] for _ in sigs]
    for j, s, t, g in bases:
        leaving[s].append((j, t, g, []))
    done = [0] * len(sigs)  # per signature: its rows already multiplied out
    while done != [len(known) for known in ids]:
        for k, known in enumerate(ids):
            if done[k] == len(known):
                continue
            new, done[k] = list(known)[done[k]:], len(known)
            for _, t, g, table in leaving[k]:
                to = ids[t]
                for p in _product(new, g, arity[k], arity[t]):
                    table.append(to.setdefault(p, len(to)))
    codes = [[ids[t][r] for r in g] for _, _, t, g in bases]
    pairs = [[(j, t) for j, t, _, _ in out] for out in leaving]
    return [list(d) for d in ids], codes, pairs, [[tb for *_, tb in out] for out in leaving]


def _coder(alphabet: Sequence[Sequence[int]]) -> tuple[Callable, Callable, Callable]:
    """The makers of a code and of a table from ids, and of the lookup of a row
    by an item of a code.  A code is bytes, translated through tables of 256
    bytes, unless some signature has more than 256 rows: then it is a str of
    ``chr(id)``, translated through lists of ids."""
    return _TEXT_CODER if max(map(len, alphabet), default=0) > 256 else _BYTE_CODER


_BYTE_CODER = (bytes, lambda ids: bytes(ids).ljust(256, b"\0"), lambda rows: rows.__getitem__)
_TEXT_CODER = (
    lambda ids: "".join(map(chr, ids)), list, lambda rows: {chr(i): r for i, r in enumerate(rows)}.__getitem__
)


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

    Element k is ``keys[k]``, its (source index, target index, code) with
    indices into ``gs.sigs``; it extends element ``parents[k]`` (-1 for a
    base graph) by the base graph ``lasts[k]``.  A code holds the ids of the
    element's rows in ``alphabet[target index]`` (see ``_coder``).  No row is
    decoded and no graph object built until a caller reads one:
    ``element(k)`` alone, or all of ``elements`` at once.  The empty set
    closes to no element.
    """

    __slots__ = ("gs", "alphabet", "keys", "parents", "lasts", "_coder", "_row_of", "_elements")

    def __init__(
        self, gs: GraphSet, alphabet: list[list[int]], keys: list, parents: list[int], lasts: list[int]
    ) -> None:
        self.gs, self.alphabet, self.keys, self.parents, self.lasts = gs, alphabet, keys, parents, lasts
        self._coder = _coder(alphabet)
        self._row_of = list(map(self._coder[2], alphabet))  # per signature
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

    def rows(self, tgt: int, code: Sequence[int]) -> tuple[int, ...]:
        """The rows a code stands for, over the signature of index tgt."""
        return tuple(map(self._row_of[tgt], code))

    def _graph(self, key: tuple[int, int, Sequence[int]]) -> SizeChangeGraph:
        sigs = self.gs.sigs
        return SizeChangeGraph._of_rows(sigs[key[0]], sigs[key[1]], self.rows(key[1], key[2]))


def closure(gs: GraphSet) -> Closure:
    """Close a graph set under composition, tracking a witness word per element.

    Breadth-first extension by base graphs visits candidate words in shortlex
    order, so each element carries the shortlex-least witness among the
    derivations the fixpoint discovers, and the result is deterministic.  An
    element is kept as its key (source index, target index, code of row ids,
    see ``_row_alphabet``), its parent's index and its last base graph.  Its
    successor by base graph j is ``code.translate(table j)``, one call in C,
    kept unless the set of codes of its (source, target) has it; the
    successor list of a (source, middle) pair is made on first use.
    """
    index = {sig: k for k, sig in enumerate(gs.sigs)}
    bases = [(j, index[g.source], index[g.target], g.rows) for j, g in enumerate(gs.graphs)]
    alphabet, codes, pairs, tables = _row_alphabet(gs.sigs, bases)
    code_of, table_of, _ = _coder(alphabet)
    # per middle signature: its successor lists by source index, made on first
    # use, the (base index, target index) pairs leaving it, and their tables
    after = [({}, out, list(map(table_of, tbs))) for out, tbs in zip(pairs, tables)]
    seen: defaultdict[tuple[int, int], set] = defaultdict(set)
    keys: list[tuple[int, int, Sequence[int]]] = []
    parents: list[int] = []
    lasts: list[int] = []
    for (j, src, tgt, _), code in zip(bases, map(code_of, codes)):
        found = seen[src, tgt]
        if code not in found:
            found.add(code)
            keys.append((src, tgt, code))
            parents.append(-1)
            lasts.append(j)
    push_key, push_parent, push_last = keys.append, parents.append, lasts.append
    # keys doubles as the queue: it is walked while it grows
    for i, (src, mid, code) in enumerate(keys):
        lists, leaving, tabs = after[mid]
        succ = lists.get(src)
        if succ is None:
            succ = lists[src] = [(j, tgt, seen[src, tgt]) for j, tgt in leaving]
        for (j, tgt, found), c in zip(succ, map(code.translate, tabs)):
            if c not in found:
                found.add(c)
                push_key((src, tgt, c))
                push_parent(i)
                push_last(j)
    return Closure(gs, alphabet, keys, parents, lasts)


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

    Each endo-element is decided on its key: first the strict diagonal, then,
    only without one, ``_is_idempotent`` on its decoded rows.  Up to 8
    parameters the code is translated to its rows' strict bits, a byte a row,
    and read as an int whose bit 9i is row i's diagonal.  Only the first
    failing idempotent is built as a graph.
    """
    if cl is None:
        cl = closure(gs)
    bytes_codes = cl._coder[0] is bytes
    # per signature, made at its first endo-element: its arity, the lookup of
    # its rows, and, for byte codes up to 8 parameters, the table of each row's
    # strict byte (r >> n) and the diagonal mask (bits 9i for i < n)
    tests: list[Optional[tuple]] = [None] * len(cl.alphabet)
    from_bytes = int.from_bytes
    for k, (src, tgt, code) in enumerate(cl.keys):
        if src != tgt:
            continue
        test = tests[src]
        if test is None:
            n = len(cl.gs.sigs[src].params)
            strict = None
            if n <= 8 and bytes_codes:
                strict = bytes(map(n.__rrshift__, cl.alphabet[src])).ljust(256, b"\0")
            test = tests[src] = (n, cl._row_of[src], strict, ((1 << 9 * n) - 1) // 511)
        n, row_of, strict, diagonal = test
        if strict is not None and from_bytes(code.translate(strict), "little") & diagonal:
            continue
        rows = tuple(map(row_of, code))
        if strict is None and _has_strict_diagonal(rows, n):
            continue
        if _is_idempotent(rows, n):
            dg = cl.element(k)
            lasso = LassoMultipath((), dg.witness)
            # a failing idempotent must also be descent-free as a lasso
            if decide_periodic_descent(lasso, gs) is not None:
                raise AssertionError("failing idempotent has a descent as a lasso")
            return Verdict(False, failing_idempotent=dg, lasso=lasso)
    return Verdict(True)
