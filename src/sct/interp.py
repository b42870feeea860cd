"""Fueled call-by-value evaluation over the naturals, with transition tracing.

Fuel is spent once per function-call entry, so a fuel budget bounds the
number of state transitions.  x-1 is monus: 0-1 = 0.
"""

from __future__ import annotations

import random
from typing import Callable, Optional, Union

from .graphs import Arc, ArcKind, FunSig
from .record import mutable_record, record
from .syntax import (
    And,
    BoolExpr,
    Call,
    CallSiteId,
    CondExpr,
    Const,
    EqConst,
    Expr,
    If,
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


class _TraceLimit(Exception):
    pass


@mutable_record
class Fuel:
    budget: int

    def __post_init__(self) -> None:
        if self.budget < 0:
            raise ValueError(f"fuel must be >= 0, got {self.budget}")

    def spend(self) -> None:
        if self.budget <= 0:
            raise OutOfFuel()
        self.budget -= 1


def _as_fuel(fuel: Union[int, Fuel]) -> Fuel:
    return fuel if isinstance(fuel, Fuel) else Fuel(fuel)


@record
class State:
    fun: FunSig
    values: tuple[int, ...]


@record
class Transition:
    source: State
    site: CallSiteId
    target: State


_PRIM_IMPL: dict[str, Callable[[int, int], int]] = {
    "plus": lambda a, b: a + b,
    "times": lambda a, b: a * b,
    "max": max,
    "min": min,
}


class _Evaluator:
    def __init__(
        self,
        program: Program,
        fuel: Fuel,
        on_transition: Optional[Callable[[Transition], None]] = None,
    ):
        self.defs = {d.sig.name: d for d in program.defs}
        self.fuel = fuel
        self.on_transition = on_transition

    def enter(self, name: str, values: tuple[int, ...]) -> FunSig:
        """Check a call from outside the program; the validator checked those inside."""
        d = self.defs.get(name)
        if d is None:
            raise ValueError(f"no function named {name!r}")
        if any(v < 0 for v in values):
            raise ValueError(f"arguments must be natural numbers, got {list(values)}")
        if len(values) != d.sig.arity:
            raise ValueError(f"{name} takes {d.sig.arity} argument(s), got {len(values)}")
        return d.sig

    def call(self, name: str, values: tuple[int, ...]) -> int:
        d = self.defs[name]
        self.fuel.spend()
        env = dict(zip(d.sig.params, values))
        return self.cond(d.body, env, d.sig, values)

    def cond(self, c: CondExpr, env, sig, values) -> int:
        while isinstance(c, If):
            c = c.then if self.boolean(c.cond, env) else c.orelse
        return self.expr(c, env, sig, values)

    def boolean(self, b: BoolExpr, env) -> bool:
        match b:
            case EqConst(p, v):
                return env[p] == v
            case Lt(l, r):
                return env[l] < env[r]
            case Le(l, r):
                return env[l] <= env[r]
            case And(l, r):
                return self.boolean(l, env) and self.boolean(r, env)
            case Or(l, r):
                return self.boolean(l, env) or self.boolean(r, env)
            case Not(operand):
                return not self.boolean(operand, env)
        raise TypeError(b)

    def expr(self, e: Expr, env, sig, values) -> int:
        match e:
            case Var(name):
                return env[name]
            case Const(value):
                return value
            case Succ(name):
                return env[name] + 1
            case Pred(name):
                v = env[name]
                return v - 1 if v > 0 else 0
            case PrimOp(op, args):
                argv = [self.expr(a, env, sig, values) for a in args]
                return _PRIM_IMPL[op](*argv)
            case Call(fun, args, label):
                argv = tuple(self.expr(a, env, sig, values) for a in args)
                if self.on_transition is not None:
                    callee = self.defs[fun].sig
                    self.on_transition(
                        Transition(State(sig, values), label, State(callee, argv))
                    )
                return self.call(fun, argv)
        raise TypeError(e)


def eval_program(
    program: Program, fun: str, args: tuple[int, ...], fuel: Union[int, Fuel]
) -> int:
    """Evaluate fun on args; raises OutOfFuel when the budget runs out.

    An unknown function, negative arguments or a wrong argument count raise
    ValueError.
    """
    ev, values = _Evaluator(program, _as_fuel(fuel)), tuple(args)
    ev.enter(fun, values)
    return ev.call(fun, values)


def trace_transitions(
    program: Program,
    state: State,
    fuel: Union[int, Fuel],
    max_len: Optional[int] = None,
) -> list[Transition]:
    """The call transitions taken while evaluating from state, in order.

    The list is truncated at max_len or at fuel exhaustion.  A state of a
    function the program lacks, with another signature, with the wrong number
    of values or with negative values raises ValueError.
    """
    out: list[Transition] = []

    def keep(tr: Transition) -> None:
        out.append(tr)
        if max_len is not None and len(out) >= max_len:
            raise _TraceLimit()

    ev = _Evaluator(program, _as_fuel(fuel), keep)
    if ev.enter(state.fun.name, state.values) != state.fun:
        raise ValueError(f"state signature does not match the program's {state.fun.name}")
    try:
        ev.call(state.fun.name, state.values)
    except (OutOfFuel, _TraceLimit):
        pass
    return out


@record
class Violation:
    site: CallSiteId
    arc: Arc
    source: State
    target: State


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
    for _ in range(trials):
        d = rng.choice(program.defs)
        values = tuple(rng.randint(0, value_bound) for _ in d.sig.params)
        transitions: list[Transition] = []
        ev = _Evaluator(program, Fuel(fuel), transitions.append)
        try:
            ev.call(d.sig.name, values)
            report.converged += 1
        except OutOfFuel:
            report.skipped += 1
        for tr in transitions:
            graph = description[tr.site]
            for arc in graph.arcs:
                u = tr.source.values[arc.src]
                v = tr.target.values[arc.tgt]
                ok = u > v if arc.kind is ArcKind.STRICT else u >= v
                if not ok:
                    report.violations.append(Violation(tr.site, arc, tr.source, tr.target))
    return report
