"""Independent reference answers, written without the sct graph algebra.

A graph over a graph set is packed as a flat tuple
``(source index, target index, row 0, row 1, ...)``.  Row ``i`` is an int:
its low ``n`` bits are the targets that parameter ``i`` reaches with any arc,
the next ``n`` bits the targets it reaches with a strict arc (``n`` is the
target arity).  Closure and oracle below follow the specification of
``sct.closure`` and ``sct.bounded_lasso_oracle`` (breadth-first shortlex
witnesses, shortlex word order), so their answers can be compared byte for
byte with the verdict JSON that ``sct`` prints.
"""

from __future__ import annotations

import json
import random
from collections import deque
from functools import cached_property


class Packed:
    """A graph set in packed form, with the names needed to print verdicts."""

    def __init__(self, gs):
        self.sig_names = [s.name for s in gs.sigs]
        self.params = [s.params for s in gs.sigs]
        self.arity = [len(p) for p in self.params]
        self.graph_names = list(gs.names)
        index = {name: i for i, name in enumerate(self.sig_names)}
        self.base = []
        for g in gs.graphs:
            src, tgt = index[g.source.name], index[g.target.name]
            n = self.arity[tgt]
            rows = [0] * self.arity[src]
            for a in g.arcs:
                rows[a.src] |= 1 << a.tgt
                if a.kind.value == "strict":
                    rows[a.src] |= 1 << (a.tgt + n)
            self.base.append((src, tgt, *rows))

    def compose(self, a: tuple, b: tuple) -> tuple:
        mid, nb = self.arity[a[1]], self.arity[b[1]]
        mid_mask, mask = (1 << mid) - 1, (1 << nb) - 1
        out = [a[0], b[1]]
        for r in a[2:]:
            reach, strict = r & mid_mask, r >> mid
            ge = gt = 0
            j = 0
            while reach:
                if reach & 1:
                    rb = b[2 + j]
                    ge |= rb & mask
                    gt |= (rb & mask) if (strict >> j) & 1 else (rb >> nb)
                reach >>= 1
                j += 1
            out.append(ge | (gt << nb))
        return tuple(out)

    def strict_self_arc(self, g: tuple) -> bool:
        n = self.arity[g[1]]
        return any((r >> (n + i)) & 1 for i, r in enumerate(g[2:]))

    def descent_free_power(self, g: tuple) -> tuple[bool, int]:
        """Whether the idempotent power of an endo-graph lacks a strict self-arc.

        Also returns the compositions ``sct.idempotent_power`` makes to find it.
        """
        p = g
        composed = 0
        while True:
            pp = self.compose(p, p)
            composed += 1
            if pp == p:
                return not self.strict_self_arc(p), composed
            p = self.compose(p, g)
            composed += 1

    def to_json(self, g: tuple) -> dict:
        src, tgt = g[0], g[1]
        n = self.arity[tgt]
        arcs = []
        for i, r in enumerate(g[2:]):
            for t in range(n):
                if (r >> t) & 1:
                    kind = "strict" if (r >> (t + n)) & 1 else "nonstrict"
                    arcs.append({"from": self.params[src][i], "kind": kind, "to": self.params[tgt][t]})
        return {"source": self.sig_names[src], "target": self.sig_names[tgt], "arcs": arcs}


class RefClosure:
    """Breadth-first closure with a parent pointer per element.

    ``compositions`` counts what ``sct.closure`` composes: one per element and
    base graph that can follow it.
    """

    def __init__(self, packed: Packed, cap: int | None = None):
        self.packed = packed
        self.elements: list[tuple] = []
        self.parent: list[int] = []
        self.last: list[int] = []
        self.compositions = 0
        self.complete = self._run(cap)

    def _run(self, cap: int | None) -> bool:
        pk = self.packed
        seen: dict[tuple, int] = {}
        for j, g in enumerate(pk.base):
            if g not in seen:
                seen[g] = len(self.elements)
                self._add(g, -1, j)
        queue = deque(range(len(self.elements)))
        by_source: dict[int, list[tuple[int, tuple]]] = {}
        for j, b in enumerate(pk.base):
            by_source.setdefault(b[0], []).append((j, b))
        while queue:
            k = queue.popleft()
            g = self.elements[k]
            self.compositions += len(by_source.get(g[1], ()))
            for j, b in by_source.get(g[1], ()):
                c = pk.compose(g, b)
                if c not in seen:
                    seen[c] = len(self.elements)
                    queue.append(len(self.elements))
                    self._add(c, k, j)
                    if cap is not None and len(self.elements) > cap:
                        return False
        return True

    def _add(self, g: tuple, parent: int, last: int) -> None:
        self.elements.append(g)
        self.parent.append(parent)
        self.last.append(last)

    def __len__(self) -> int:
        return len(self.elements)

    def witness(self, k: int) -> list[int]:
        word = []
        while k != -1:
            word.append(self.last[k])
            k = self.parent[k]
        return word[::-1]

    def witness_bound(self) -> int:
        depth = [0] * len(self.elements)
        for k, p in enumerate(self.parent):
            depth[k] = 1 if p == -1 else depth[p] + 1
        return max(depth)

    @cached_property
    def first_failing(self) -> int | None:
        """Index of the first idempotent without a strict self-arc, in closure order."""
        pk = self.packed
        for k, g in enumerate(self.elements):
            if g[0] == g[1] and pk.compose(g, g) == g and not pk.strict_self_arc(g):
                return k
        return None

    def arcs(self, elements) -> int:
        """Total number of arcs of the given elements."""
        total = 0
        for g in elements:
            mask = (1 << self.packed.arity[g[1]]) - 1
            total += sum((r & mask).bit_count() for r in g[2:])
        return total

    def scanned(self) -> list[tuple]:
        """The elements the criterion scans: all, or up to the first failure."""
        k = self.first_failing
        return self.elements if k is None else self.elements[: k + 1]

    def verdict(self) -> dict:
        """The verdict object ``sct`` prints, plus ``closure_size``."""
        k = self.first_failing
        out: dict = {"sct": k is None}
        if k is not None:
            names = [self.packed.graph_names[j] for j in self.witness(k)]
            failing = self.packed.to_json(self.elements[k])
            failing["witness"] = names
            out["failing_idempotent"] = failing
            out["lasso"] = {"prefix": [], "period": names}
        out["closure_size"] = len(self.elements)
        return out


def oracle(packed: Packed, max_len: int) -> tuple[int, list[int] | None, int]:
    """Words checked and first descent-free cyclic word, in shortlex order.

    The third value counts the compositions ``sct.bounded_lasso_oracle``
    makes: each word is composed from scratch, then raised to its idempotent
    power.
    """
    base = packed.base
    checked = composed = 0
    for length in range(1, max_len + 1):
        # depth-first over composable words of this length, smallest index first
        stack = [((j,), base[j]) for j in reversed(range(len(base)))]
        while stack:
            word, value = stack.pop()
            if len(word) == length:
                if base[word[-1]][1] == base[word[0]][0]:
                    checked += 1
                    free, steps = packed.descent_free_power(value)
                    composed += len(word) - 1 + steps
                    if free:
                        return checked, list(word), composed
                continue
            for j in reversed(range(len(base))):
                if base[j][0] == value[1]:
                    stack.append((word + (j,), packed.compose(value, base[j])))
    return checked, None, composed


def dumps(data: dict) -> str:
    return json.dumps(data, indent=2) + "\n"


def run_synthesized(gs, fun: str, args: tuple[int, ...], fuel: int) -> tuple[str, int | None, int]:
    """Evaluate the dispatch program that ``sct.synthesize`` builds for gs.

    Works from the graphs, not from the program: branch h of a function with
    k outgoing graphs runs when x0 = h (h < k-1), the last branch otherwise;
    a strict arc passes x_s-1 (monus), a non-strict arc x_s, and a target
    position without an incoming arc gets x_j+1.  A function without outgoing
    graphs returns x0.  One unit of fuel is spent per call entry.  Every call
    is in tail position, so the calls made are also the nesting depth.
    Returns ``("value", v, calls)`` or ``("out_of_fuel", None, calls)``.
    """
    outgoing: dict[str, list] = {s.name: [] for s in gs.sigs}
    for g in gs.graphs:
        incoming = {a.tgt: (a.src, a.kind.value == "strict") for a in g.arcs}
        outgoing[g.source.name].append((g.target.name, incoming))
    x = list(args)
    calls = 0
    while True:
        if calls == fuel:
            return ("out_of_fuel", None, calls)
        calls += 1
        branches = outgoing[fun]
        if not branches:
            return ("value", x[0], calls)
        h = x[0] if x[0] < len(branches) - 1 else len(branches) - 1
        fun, incoming = branches[h]
        new = []
        for j in range(len(x)):
            if j in incoming:
                s, strict = incoming[j]
                new.append(max(x[s] - 1, 0) if strict else x[s])
            else:
                new.append(x[j] + 1)
        x = new


def safety_runs(gs, trials: int, value_bound: int, fuel: int, seed: int) -> list[tuple[str, int | None, int]]:
    """The runs ``sct.sample_safety`` samples on the program synthesized from gs.

    Draws start states the way ``sample_safety`` does (a function, then each
    argument in 0..value_bound, from ``random.Random(seed)``).
    """
    rng = random.Random(seed)
    arity = max(s.arity for s in gs.sigs)
    runs = []
    for _ in range(trials):
        sig = rng.choice(gs.sigs)
        values = tuple(rng.randint(0, value_bound) for _ in range(arity))
        runs.append(run_synthesized(gs, sig.name, values, fuel))
    return runs


def ackermann(m: int, n: int) -> int:
    """Closed forms of the Ackermann-Peter function for rows 0 to 3."""
    return {0: n + 1, 1: n + 2, 2: 2 * n + 3, 3: 2 ** (n + 3) - 3}[m]
