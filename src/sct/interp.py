"""Fueled call-by-value evaluation over the naturals, with sampled safety checking.

Fuel counts charged entries: every function-call entry is charged one unit,
so a fuel budget bounds the number of state transitions.  It is the only
bound: calls run on an explicit list of frames, not on Python's stack.  x-1
is monus: 0-1 = 0.

A run keeps, for its own length, the value and the fuel of each non-tail
call that returned after costing more than one entry.  The same call again
reuses its value and is charged its fuel again, without being entered, so
values, OutOfFuel and the fuel left are those of entering every call.  When
the fuel left is less than the cost, a run without a hook takes it all and
raises OutOfFuel, and a hooked run enters the call, so that it runs out where
entering every call does.  Tail calls are never kept, as a repeated tail
state never returns.

sample_safety's hook checks each transition (site, values, argv), the fields
of a Violation, and appends what it breaks to one list, its log.  Its trials
share one _Watch, which lasts the call.  There a returned call also keeps the
log slice its subtree appended, which each reuse appends again.  And each
state entered with no frame pending, (function, arguments), has one record:
its position in the log, the budget at its entry, and how its future ends,
in a returned value, out of fuel, or a link to another recorded state, which
covers loops.  Entering a recorded state appends the recorded slices and
charges their cost instead of interpreting, as far as the budget reaches (a
loop by divmod, not turn by turn), and then interprets on from the furthest
recorded state that fits.  So violations, their order, the counts and every
Fuel reading are those of entering every call.  A _Watch keeps at most one
record per state entered with no frame pending and one kept call per call
entered, so at most trials x fuel of each.  sample_safety returns its counts
and violations as one frozen SafetyReport.

Each function is compiled on its first entry.  Its else-if chain becomes a
chain of condition closures over the argument tuple, with parameters resolved
to indices, that selects a leaf:

- a call-free leaf is one closure that computes the value;
- a call with call-free arguments is a tail step, which reuses the frame;
- any other leaf is a short postfix code of values, primitive operators and
  calls.  A call before the code's end saves the frame; its last call is a
  tail step.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from collections import defaultdict
from operator import add, itemgetter, mul
from typing import Callable, Optional, Union

from .graphs import Arc, ArcKind, FunSig
from .record import mutable_record, record
from .syntax import (
    And,
    BoolExpr,
    Call,
    CallSiteId,
    Cases,
    CondExpr,
    Const,
    EqConst,
    Expr,
    Le,
    Lt,
    Not,
    Or,
    Pred,
    PrimOp,
    Program,
    Succ,
    Var,
)


class OutOfFuel(Exception):
    """The fuel budget was exhausted before evaluation finished."""


@mutable_record
class Fuel:
    budget: int

    def __post_init__(self) -> None:
        if self.budget < 0:
            raise ValueError(f"fuel must be >= 0, got {self.budget}")


_PRIM_IMPL: dict[str, Callable[[int, int], int]] = {
    "plus": add,
    "times": mul,
    "max": max,
    "min": min,
}

# leaf kinds: (_VALUE, value), (_TAIL, arguments, label, callee), (_CODE, code)
_VALUE, _TAIL, _CODE = 0, 1, 2
# postfix instructions, each (op, x, label, k):
#   _PUSH      push x(args)
#   _PRIM      replace the top two values by x applied to them
#   _CALL_ARGS call x on k(args), saving the frame
#   _CALL      call x on the top k values, saving the frame
#   _TAIL_CALL call x on every value left, in place of the frame
#   _RETURN    return the one value left
_PUSH, _PRIM, _CALL_ARGS, _CALL, _TAIL_CALL, _RETURN = range(6)

# the hook's arguments, as a Violation holds them: call site (it fixes both signatures), values, argv
_Hook = Callable[[CallSiteId, tuple, tuple], None]


class _Fun:
    """One function of a compiled program; ``select`` maps arguments to a leaf."""

    __slots__ = ("sig", "select")

    def __init__(self, sig: FunSig, select) -> None:
        self.sig, self.select = sig, select


def _has_call(e: Expr) -> bool:
    return isinstance(e, Call) or isinstance(e, PrimOp) and any(map(_has_call, e.args))


def _tuple_of(fs: list) -> Callable[[tuple], tuple]:
    if len(fs) == 1:
        f0, = fs
        return lambda a: (f0(a),)
    if len(fs) == 2:
        f0, f1 = fs
        return lambda a: (f0(a), f1(a))
    if len(fs) == 3:
        f0, f1, f2 = fs
        return lambda a: (f0(a), f1(a), f2(a))
    return lambda a: tuple([f(a) for f in fs])


class _Compiled:
    """A program's functions, each compiled on its first entry.

    Programs are taken as valid, as the parser and ``synthesize`` build them.
    """

    def __init__(self, program: Program) -> None:
        defs = {d.sig.name: d for d in program.defs}
        self.funs = {name: self._lazy(d.sig, d.body) for name, d in defs.items()}

    def _lazy(self, sig: FunSig, body: CondExpr) -> _Fun:
        def first_entry(args):
            fn.select = self._chain(body, {p: i for i, p in enumerate(sig.params)})
            return fn.select(args)

        fn = _Fun(sig, first_entry)
        return fn

    def enter(self, name: str, values: tuple[int, ...]) -> _Fun:
        """Check a call from outside the program; the validator checked those inside."""
        fn = self.funs.get(name)
        if fn is None:
            raise ValueError(f"no function named {name!r}")
        if any(v < 0 for v in values):
            raise ValueError(f"arguments must be natural numbers, got {list(values)}")
        if len(values) != fn.sig.arity:
            raise ValueError(f"{name} takes {fn.sig.arity} argument(s), got {len(values)}")
        return fn

    # --- conditions: an else-if chain, whose then-branches may be nested chains

    def _chain(self, c: CondExpr, index: dict[str, int]) -> Callable[[tuple], tuple]:
        if not isinstance(c, Cases):
            last = self._leaf(c, index)
            return lambda a: last
        conds, last = c.conds, self._leaf(c.orelse, index)
        branches = [
            self._chain(t, index) if isinstance(t, Cases) else self._leaf(t, index) for t in c.thens
        ]
        tested = {index[b.param] if isinstance(b, EqConst) else -1 for b in conds}
        if len(tested) == 1 and -1 not in tested and all(isinstance(b, tuple) for b in branches):
            # one parameter against constants, as synthesis builds chains: one
            # lookup of its value, where the first test of a constant wins
            table: dict[int, tuple] = {}
            for b, branch in zip(conds, branches):
                table.setdefault(b.value, branch)
            i, = tested
            return lambda a: table.get(a[i], last)
        pairs = tuple((self._test(b, index), branch) for b, branch in zip(conds, branches))

        def select(a):
            for test, branch in pairs:
                if test(a):
                    return branch if branch.__class__ is tuple else branch(a)
            return last

        return select

    def _test(self, b: BoolExpr, index: dict[str, int]) -> Callable[[tuple], bool]:
        match b:
            case EqConst(p, v):
                i = index[p]
                return lambda a: a[i] == v
            case Lt(l, r):
                i, j = index[l], index[r]
                return lambda a: a[i] < a[j]
            case Le(l, r):
                i, j = index[l], index[r]
                return lambda a: a[i] <= a[j]
            case And(l, r):
                lf, rf = self._test(l, index), self._test(r, index)
                return lambda a: lf(a) and rf(a)
            case Or(l, r):
                lf, rf = self._test(l, index), self._test(r, index)
                return lambda a: lf(a) or rf(a)
            case Not(operand):
                f = self._test(operand, index)
                return lambda a: not f(a)
        raise TypeError(b)

    # --- leaves

    def _leaf(self, e: Expr, index: dict[str, int]) -> tuple:
        if not _has_call(e):
            return (_VALUE, self._value(e, index))
        if isinstance(e, Call) and not any(map(_has_call, e.args)):
            return (_TAIL, self._args(e.args, index), e.label, self.funs[e.fun])
        code: list[tuple] = []
        self._emit(e, index, code)
        op, callee, label, _ = code[-1]
        if op == _CALL:
            code[-1] = (_TAIL_CALL, callee, label, None)
        else:
            code.append((_RETURN, None, None, None))
        return (_CODE, tuple(code))

    def _emit(self, e: Expr, index: dict[str, int], code: list[tuple]) -> None:
        """Append the postfix code of e, which leaves e's value on the stack."""
        if not _has_call(e):
            code.append((_PUSH, self._value(e, index), None, None))
        elif isinstance(e, Call):
            if any(map(_has_call, e.args)):
                for a in e.args:
                    self._emit(a, index, code)
                code.append((_CALL, self.funs[e.fun], e.label, len(e.args)))
            else:
                code.append((_CALL_ARGS, self.funs[e.fun], e.label, self._args(e.args, index)))
        else:  # a PrimOp with a call among its arguments
            for a in e.args:
                self._emit(a, index, code)
            code.append((_PRIM, _PRIM_IMPL[e.op], None, None))

    def _args(self, args: tuple[Expr, ...], index: dict[str, int]) -> Callable[[tuple], tuple]:
        return _tuple_of([self._value(a, index) for a in args])

    def _value(self, e: Expr, index: dict[str, int]) -> Callable[[tuple], int]:
        """The closure computing call-free e from the argument tuple."""
        match e:
            case Var(name):
                return itemgetter(index[name])
            case Const(value):
                return lambda a: value
            case Succ(name):
                i = index[name]
                return lambda a: a[i] + 1
            case Pred(name):
                i = index[name]
                return lambda a: a[i] - 1 if a[i] > 0 else 0
            case PrimOp(op, (x, y)):  # the parser admits binary operators only
                f, f0, f1 = _PRIM_IMPL[op], self._value(x, index), self._value(y, index)
                return lambda a: f(f0(a), f1(a))
        raise TypeError(e)


class _Watch:
    """What a hooked run keeps, and hands on to the next run it watches.

    ``log`` is the list the hook appends to.  ``done`` holds each returned
    non-tail call as (value, cost, start, stop): the log slice its subtree
    appended.  A state entered with no frame pending is (function,
    arguments); ``states`` maps each to its entry's position in ``trail``,
    a flat list of (function, arguments, budget, mark): the budget at its
    entry and the log's length there.  The states a run enters one after
    another are consecutive entries, a path; ``stops`` holds where each path
    ends and ``ends`` how: (budget, mark, value, link) where it returned
    value, ran out of fuel (value and link None) or went on into the entry
    at link.  ``start`` is where the open path begins, or None.
    """

    __slots__ = ("hook", "log", "done", "states", "trail", "stops", "ends", "start")

    def __init__(self, hook: _Hook, log: list) -> None:
        self.hook, self.log = hook, log
        self.done: defaultdict[_Fun, dict[tuple, tuple]] = defaultdict(dict)
        self.states: defaultdict[_Fun, dict[tuple, int]] = defaultdict(dict)
        self.trail: list = []
        self.stops: list[int] = []
        self.ends: list[tuple] = []
        self.start: Optional[int] = None

    def seal(self, budget: int, value: Optional[int], link: Optional[int]) -> None:
        """End the open path here, if it holds a state."""
        if self.start is not None and len(self.trail) > self.start:
            self.stops.append(len(self.trail))
            self.ends.append((budget, len(self.log), value, link))
        self.start = None

    def replay(self, i: int, budget: int) -> tuple:
        """Run the known future of the entry at i, as far as budget reaches.

        Appends its log slices and returns (value, budget left, None, None)
        when it returns, (None, 0, None, None) when it runs out of fuel, or
        else (None, budget left, function, arguments) of the entry to go on
        interpreting from.  A loop is gone round by divmod.
        """
        trail, log, ends = self.trail, self.log, self.ends
        met: dict[int, tuple[int, int]] = {}
        while True:
            if i in met:  # a loop: as many more whole laps as the budget pays for
                before, start = met[i]
                laps, budget = divmod(budget, before - budget)
                log += log[start:] * laps
                met.clear()
            met[i] = budget, len(log)
            p = bisect_right(self.stops, i)
            at, mark = trail[i + 2], trail[i + 3]
            end_budget, end_mark, value, link = ends[p]
            cost = at - end_budget
            # the whole path fits: it returns, leads on, or runs out where it ran out before
            if cost < budget and (value is not None or link is not None) or cost == budget:
                log += log[mark:end_mark]
                budget -= cost
                if link is None:
                    return value, budget, None, None
                i = link
                continue
            # the furthest entry the budget reaches; budgets fall along a path
            lo, hi = i, self.stops[p]
            while hi - lo > 4:
                mid = lo + (hi - lo) // 8 * 4
                if at - trail[mid + 2] <= budget:
                    lo = mid
                else:
                    hi = mid
            fn, args, now, to = trail[lo:lo + 4]
            log += log[mark:to]
            self.start = len(trail)
            if cost < budget:
                # past where the path ran out of fuel: its last state goes on
                # the new path, which the old one now leads into at no cost
                ends[p] = now, to, None, len(trail)
                trail += fn, args, budget - (at - now), len(log)
            return None, budget - (at - now), fn, args


def _run(fn: _Fun, args: tuple, fuel: Fuel, watch: Optional[_Watch]) -> int:
    """Enter fn on args and run until it returns.

    A frame is (function, arguments, code, next instruction, value stack,
    then the callee's table, the call's arguments, the budget before the
    call and the log's length after its transition).  Fuel is charged on
    every entry, after the hook has seen the transition.  A saved call that
    returns after costing more than one entry goes into its callee's table;
    the same call again pushes the value and is charged the cost, and a
    hooked run appends its log slice again.  When the cost is more than the
    budget left, an unhooked run takes the budget and raises OutOfFuel, and
    a hooked run enters the call.  A hooked run records each state it enters
    with no frame pending, and runs the known future of one it has recorded
    before (``_Watch.replay``).
    """
    budget = fuel.budget
    frames: list[tuple] = []
    if watch is None:
        hook = states = None
        # callee -> arguments -> (value, cost, start, stop) for this run
        done: defaultdict[_Fun, dict[tuple, tuple]] = defaultdict(dict)
        log: list = []
    else:
        hook, log, done, states, trail = watch.hook, watch.log, watch.done, watch.states, watch.trail
        watch.start = len(trail)
    callee, argv, value = fn, args, None
    try:
        while True:
            if states is not None and not frames:
                # a state entered with no frame pending: record it, or run its known future
                n = len(trail)
                known = states[callee].setdefault(argv, n)
                if known == n:
                    trail += callee, argv, budget, len(log)
                else:
                    watch.seal(budget, None, known)
                    value, budget, callee, argv = watch.replay(known, budget)
                    if callee is None:
                        if value is None:
                            raise OutOfFuel()
                        return value
            if budget <= 0:
                raise OutOfFuel()
            budget -= 1
            fn, args = callee, argv
            leaf = fn.select(args)
            kind = leaf[0]
            if kind == _TAIL:
                _, argf, label, callee = leaf
                argv = argf(args)
                if hook is not None:
                    hook(label, args, argv)
                continue
            if kind == _VALUE:
                value = leaf[1](args)
                if not frames:
                    return value
                fn, args, code, pc, stack, table, called, before, mark = frames.pop()
                if before - budget > 1:
                    table[called] = value, before - budget, mark, len(log)
                stack.append(value)
            else:
                code, pc, stack = leaf[1], 0, []
            while True:
                op, x, label, k = code[pc]
                pc += 1
                if op == _PUSH:
                    stack.append(x(args))
                    continue
                if op == _CALL_ARGS:
                    argv = k(args)
                elif op == _CALL:
                    argv = tuple(stack[-k:])
                    del stack[-k:]
                elif op == _TAIL_CALL:
                    callee, argv = x, tuple(stack)
                    if hook is not None:
                        hook(label, args, argv)
                    break
                elif op == _PRIM:
                    right = stack.pop()
                    stack[-1] = x(stack[-1], right)
                    continue
                else:  # _RETURN
                    value = stack[0]
                    if not frames:
                        return value
                    fn, args, code, pc, stack, table, called, before, mark = frames.pop()
                    if before - budget > 1:
                        table[called] = value, before - budget, mark, len(log)
                    stack.append(value)
                    continue
                # a call that saves the frame, unless it has returned before
                if hook is not None:
                    hook(label, args, argv)
                table = done[x]
                found = table.get(argv)
                if found is not None:
                    value, cost, start, stop = found
                    if cost <= budget:
                        budget -= cost
                        if start < stop:
                            log += log[start:stop]
                        stack.append(value)
                        continue
                    if hook is None:
                        budget = 0
                        raise OutOfFuel()
                callee = x
                frames.append((fn, args, code, pc, stack, table, argv, budget, len(log)))
                break
    except OutOfFuel:
        value = None
        raise
    finally:
        fuel.budget = budget
        if watch is not None:
            watch.seal(budget, value, None)


def eval_program(
    program: Program, fun: str, args: tuple[int, ...], fuel: Union[int, Fuel]
) -> int:
    """Evaluate fun on args; raises OutOfFuel when the budget runs out.

    Each call entered is charged one unit of fuel.  A non-tail call made
    again after it returned reuses its value and is charged its fuel again,
    so the value, OutOfFuel and the fuel left are those of entering every
    call.  An unknown function, negative arguments or a wrong argument count
    raise ValueError.
    """
    if not isinstance(fuel, Fuel):
        fuel = Fuel(fuel)
    values = tuple(args)
    return _run(_Compiled(program).enter(fun, values), values, fuel, None)


@record
class Violation:
    """A call at site that breaks arc, seen as the caller's values and the call's.

    The two signatures are those of the site's graph: ``description[site].source``
    and ``.target``.
    """

    site: CallSiteId
    arc: Arc
    values: tuple[int, ...]
    argv: tuple[int, ...]


@record
class SafetyReport:
    violations: tuple[Violation, ...]
    converged: int
    skipped: int


def sample_safety(
    program: Program,
    description,
    trials: int,
    value_bound: int,
    fuel: int,
    seed: int = 0,
) -> SafetyReport:
    """Check a description against randomly sampled executions.

    Every observed transition is checked against every arc of the graph the
    description assigns to its call site.  Trials that run out of fuel are
    counted as skipped; their completed transitions are still checked.
    """
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    if value_bound < 0:
        raise ValueError(f"value_bound must be >= 0, got {value_bound}")
    rng = random.Random(seed)
    violations: list[Violation] = []
    # (source, target, strict, arc) per arc, per call site, built on its first transition
    checks: dict[CallSiteId, tuple] = {}

    def check(site: CallSiteId, values: tuple, argv: tuple) -> None:
        arcs = checks.get(site)
        if arcs is None:
            arcs = checks[site] = tuple(
                (a.src, a.tgt, a.kind is ArcKind.STRICT, a) for a in description[site].arcs
            )
        for s, t, strict, arc in arcs:
            u, v = values[s], argv[t]
            if u < v or strict and u == v:
                violations.append(Violation(site, arc, values, argv))

    funs = _Compiled(program).funs
    starts = [(funs[d.sig.name], d.sig.params) for d in program.defs]
    watch = _Watch(check, violations)
    converged = skipped = 0
    left = Fuel(fuel)
    for _ in range(trials):
        fn, params = rng.choice(starts)
        # the draws of randint(0, value_bound), without its extra call
        values = tuple([rng.randrange(value_bound + 1) for _ in params])
        left.budget = fuel
        try:
            _run(fn, values, left, watch)
            converged += 1
        except OutOfFuel:
            skipped += 1
    return SafetyReport(tuple(violations), converged, skipped)
