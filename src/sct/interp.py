"""Fueled call-by-value evaluation over the naturals, with sampled safety checking.

Fuel is spent once per function-call entry, so a fuel budget bounds the
number of state transitions.  It is the only bound: calls run on an explicit
list of frames, not on Python's stack.  x-1 is monus: 0-1 = 0.

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
from operator import itemgetter
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
    "plus": lambda a, b: a + b,
    "times": lambda a, b: a * b,
    "max": max,
    "min": min,
}

# leaf kinds: (_VALUE, value), (_TAIL, arguments, label, callee), (_CODE, code)
_VALUE, _TAIL, _CODE = 0, 1, 2
# postfix instructions, each (op, x, label, k):
#   _PUSH      push x(args)
#   _PRIM      replace the top k values by x applied to them
#   _CALL_ARGS call x on k(args), saving the frame
#   _CALL      call x on the top k values, saving the frame
#   _TAIL_CALL call x on every value left, in place of the frame
#   _RETURN    return the one value left
_PUSH, _PRIM, _CALL_ARGS, _CALL, _TAIL_CALL, _RETURN = range(6)

# the hook's arguments: source signature, its values, the call site's label,
# target signature and the argument values
_Hook = Callable[[FunSig, tuple, CallSiteId, FunSig, tuple], None]


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
            code.append((_PRIM, _PRIM_IMPL[e.op], None, len(e.args)))

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


def _run(fn: _Fun, args: tuple, fuel: Fuel, hook: Optional[_Hook]) -> int:
    """Enter fn on args and run until it returns.

    A frame is (function, arguments, code, next instruction, value stack).
    Fuel is spent on every entry, after the hook has seen the transition.
    """
    budget = fuel.budget
    frames: list[tuple] = []
    try:
        if budget <= 0:
            raise OutOfFuel()
        budget -= 1
        while True:
            leaf = fn.select(args)
            kind = leaf[0]
            if kind == _TAIL:
                _, argf, label, callee = leaf
                argv = argf(args)
            else:
                if kind == _VALUE:
                    value = leaf[1](args)
                    if not frames:
                        return value
                    fn, args, code, pc, stack = frames.pop()
                    stack.append(value)
                else:
                    code, pc, stack = leaf[1], 0, []
                while True:
                    op, x, label, k = code[pc]
                    pc += 1
                    if op == _PUSH:
                        stack.append(x(args))
                    elif op == _CALL_ARGS:
                        callee, argv = x, k(args)
                        frames.append((fn, args, code, pc, stack))
                        break
                    elif op == _TAIL_CALL:
                        callee, argv = x, tuple(stack)
                        break
                    elif op == _CALL:
                        callee, argv = x, tuple(stack[-k:])
                        del stack[-k:]
                        frames.append((fn, args, code, pc, stack))
                        break
                    elif op == _PRIM:
                        operands = stack[-k:]
                        del stack[-k:]
                        stack.append(x(*operands))
                    else:  # _RETURN
                        value = stack[0]
                        if not frames:
                            return value
                        fn, args, code, pc, stack = frames.pop()
                        stack.append(value)
            if hook is not None:
                hook(fn.sig, args, label, callee.sig, argv)
            if budget <= 0:
                raise OutOfFuel()
            budget -= 1
            fn, args = callee, argv
    finally:
        fuel.budget = budget


def eval_program(
    program: Program, fun: str, args: tuple[int, ...], fuel: Union[int, Fuel]
) -> int:
    """Evaluate fun on args; raises OutOfFuel when the budget runs out.

    An unknown function, negative arguments or a wrong argument count raise
    ValueError.
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


@mutable_record
class SafetyReport:
    violations: Optional[list[Violation]] = None  # a fresh empty list when omitted
    converged: int = 0
    skipped: int = 0

    def __post_init__(self) -> None:
        if self.violations is None:
            self.violations = []

    @property
    def ok(self) -> bool:
        return not self.violations


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
    rng = random.Random(seed)
    report = SafetyReport()
    violations = report.violations
    # (source, target, strict, arc) per arc, per call site, built on its first transition
    checks: dict[CallSiteId, tuple] = {}

    def check(source: FunSig, values: tuple, site: CallSiteId, target: FunSig, argv: tuple) -> None:
        arcs = checks.get(site)
        if arcs is None:
            arcs = checks[site] = tuple(
                (a.src, a.tgt, a.kind is ArcKind.STRICT, a) for a in description[site].arcs
            )
        for s, t, strict, arc in arcs:
            u, v = values[s], argv[t]
            if u < v or strict and u == v:
                violations.append(Violation(site, arc, values, argv))

    compiled = _Compiled(program)
    for _ in range(trials):
        d = rng.choice(program.defs)
        values = tuple(rng.randint(0, value_bound) for _ in d.sig.params)
        try:
            _run(compiled.funs[d.sig.name], values, Fuel(fuel), check)
            report.converged += 1
        except OutOfFuel:
            report.skipped += 1
    return report
