"""Reduction recognition, including the paper's forward-substitution method.

Two recognizers are provided:

* :func:`syntactic_reductions` — the conventional compile-time approach:
  match statements of the exact form ``A(e) = A(e) op c``.  This is the
  baseline the paper improves on.
* :func:`find_reductions` — the paper's method (§IV): demand-driven
  forward substitution of scalar right-hand sides, with control
  dependences converted to data dependences (gated/gamma values).  It
  recognizes reductions whose value flows through private scalar
  temporaries and statically unpredictable control flow — the SPICE
  ``LOAD`` idiom — and reductions nested in inner loops.

Recognition produces *candidates*: the run-time LRPD test still validates
(via the ``A_nx`` shadow) that each array element was touched only by
reduction statements with a consistent operator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.sym import (
    SConst,
    SDef,
    SGamma,
    SInit,
    SLoad,
    SOp,
    SUnknown,
    SymExpr,
    contains_array_load,
    contains_init,
    gamma_leaves,
    inits_in,
    loads_in,
    make_op,
)
from repro.analysis.symtab import summarize_body
from repro.dsl.ast_nodes import (
    ArrayRef,
    Assign,
    BinOp,
    Call,
    Do,
    Expr,
    If,
    Num,
    Stmt,
    UnaryOp,
    Var,
    While,
    expr_key,
)

REDUCTION_OPS = ("+", "*", "min", "max")

#: Marker for a control path that leaves the element unchanged.
_IDENTITY = "id"


@dataclass(frozen=True)
class ReductionCandidate:
    """A validated-at-compile-time reduction update site."""

    array: str
    op: str
    store_ref_id: int
    load_ref_ids: frozenset[int]
    line: int


@dataclass
class ReductionReport:
    """Everything reduction recognition learned about a loop body."""

    candidates: list[ReductionCandidate] = field(default_factory=list)
    scalar_reductions: dict[str, str] = field(default_factory=dict)  # name -> op
    #: ref_id -> operator for every reference inside a validated reduction
    #: statement (both the load and the store side); consumed by the
    #: interpreter's marking and by the access router.
    redux_refs: dict[int, str] = field(default_factory=dict)
    #: id() of each validated reduction Assign statement.
    reduction_stmt_ids: frozenset[int] = frozenset()
    #: demand-driven substitution counters: scalar definitions recorded
    #: during symbolic execution vs. actually expanded at a demand point.
    #: ``defs_expanded < defs_recorded`` whenever a definition died
    #: (was overwritten) before any observable use.
    defs_recorded: int = 0
    defs_expanded: int = 0

    def arrays(self) -> set[str]:
        return {c.array for c in self.candidates}


# ---------------------------------------------------------------------------
# Baseline: purely syntactic matching
# ---------------------------------------------------------------------------


def syntactic_reductions(body: list[Stmt], candidate_arrays: set[str]) -> list[Assign]:
    """Statements of the literal form ``A(e) = A(e) op c`` (c free of A).

    No forward substitution, no control-flow reasoning: this is the
    pattern-matching baseline of conventional compilers.
    """
    matches: list[Assign] = []
    for stmt in _walk(body):
        if not isinstance(stmt, Assign) or not isinstance(stmt.target, ArrayRef):
            continue
        array = stmt.target.name
        if array not in candidate_arrays:
            continue
        if _syntactic_op(stmt) is not None:
            matches.append(stmt)
    return matches


def _syntactic_op(stmt: Assign) -> str | None:
    target = stmt.target
    assert isinstance(target, ArrayRef)
    expr = stmt.expr
    target_key = expr_key(target)

    def is_self(e: Expr) -> bool:
        return expr_key(e) == target_key

    def free_of_array(e: Expr) -> bool:
        from repro.analysis.symtab import arrays_in

        return target.name not in arrays_in(e)

    if isinstance(expr, BinOp) and expr.op in ("+", "-", "*"):
        if is_self(expr.left) and free_of_array(expr.right):
            return "+" if expr.op in ("+", "-") else "*"
        if expr.op in ("+", "*") and is_self(expr.right) and free_of_array(expr.left):
            return "+" if expr.op == "+" else "*"
    if isinstance(expr, Call) and expr.func in ("min", "max"):
        a, b = expr.args
        if is_self(a) and free_of_array(b):
            return expr.func
        if is_self(b) and free_of_array(a):
            return expr.func
    return None


def _walk(body: list[Stmt]):
    for stmt in body:
        yield stmt
        if isinstance(stmt, If):
            yield from _walk(stmt.then_body)
            yield from _walk(stmt.else_body)
        elif isinstance(stmt, (Do, While)):
            yield from _walk(stmt.body)


# ---------------------------------------------------------------------------
# The paper's method: forward substitution with gated merges
# ---------------------------------------------------------------------------


@dataclass
class _StoreRecord:
    array: str
    sub: SymExpr
    rhs: SymExpr
    store_ref_id: int
    stmt: Assign


@dataclass
class _ScalarDef:
    """One recorded scalar assignment, unexpanded.

    The right-hand side stays AST; ``env`` and ``versions`` snapshot the
    scalar bindings and array store counters it closes over, so the
    definition can be expanded later with exactly the values it would
    have seen at assignment time.
    """

    expr: Expr
    env: dict[str, SymExpr]
    versions: dict[str, int]


class _SymExec:
    """Demand-driven symbolic execution of one loop iteration.

    Scalar assignments are *recorded*, not evaluated: the environment
    binds the name to an :class:`~repro.analysis.sym.SDef` placeholder
    and the right-hand side is kept as unevaluated AST together with a
    snapshot of the bindings it closes over (:class:`_ScalarDef`).
    Forward substitution happens only when a value reaches a *demand
    point* — a store's subscript or right-hand side, a branch or loop
    condition, an inner loop's exit merge, or the end-of-iteration
    finals (:meth:`finalize`) — which is the paper's demand-driven
    formulation of the GSSA substitution (§IV): a definition that is
    overwritten before any observable use is never expanded, and its
    array subscripts never pollute the escaped sets.
    """

    def __init__(self) -> None:
        self.env: dict[str, SymExpr] = {}
        self.stores: list[_StoreRecord] = []
        self.escaped_loads: set[int] = set()
        self.escaped_inits: set[str] = set()
        self._array_version: dict[str, int] = {}
        self._scalar_version: dict[str, int] = {}
        self._defs: dict[tuple[str, int], _ScalarDef] = {}
        self._expanded: dict[tuple[str, int], SymExpr] = {}

    @property
    def defs_recorded(self) -> int:
        return len(self._defs)

    @property
    def defs_expanded(self) -> int:
        return len(self._expanded)

    # -- statements -------------------------------------------------------

    def exec_block(self, body: list[Stmt]) -> None:
        for stmt in body:
            self.exec_stmt(stmt)

    def exec_stmt(self, stmt: Stmt) -> None:
        if isinstance(stmt, Assign):
            self._exec_assign(stmt)
        elif isinstance(stmt, If):
            self._exec_if(stmt)
        elif isinstance(stmt, Do):
            self._exec_inner_loop(stmt, bounds=(stmt.start, stmt.stop, stmt.step))
        elif isinstance(stmt, While):
            self._escape(self.resolve(self.eval(stmt.cond)))
            self._exec_inner_loop(stmt, bounds=())
        else:
            raise TypeError(f"not a statement: {stmt!r}")

    def _exec_assign(self, stmt: Assign) -> None:
        if isinstance(stmt.target, Var):
            # Record, don't expand: the value may be dead.
            name = stmt.target.name
            version = self._scalar_version.get(name, 0)
            self._scalar_version[name] = version + 1
            self._defs[(name, version)] = _ScalarDef(
                expr=stmt.expr,
                env=dict(self.env),
                versions=dict(self._array_version),
            )
            self.env[name] = SDef(name, version)
            return
        # A store is a demand point for both its value and its subscript.
        target = stmt.target
        rhs = self.resolve(self.eval(stmt.expr))
        sub = self.resolve(self.eval(target.index))
        self._escape(sub)
        self.stores.append(
            _StoreRecord(
                array=target.name,
                sub=sub,
                rhs=rhs,
                store_ref_id=target.ref_id,
                stmt=stmt,
            )
        )
        # Later loads of this array may observe the new value.
        self._array_version[target.name] = self._array_version.get(target.name, 0) + 1

    def _exec_if(self, stmt: If) -> None:
        cond = self.resolve(self.eval(stmt.cond))
        self._escape(cond)
        before = dict(self.env)
        self.exec_block(stmt.then_body)
        then_env = self.env
        self.env = dict(before)
        self.exec_block(stmt.else_body)
        else_env = self.env
        merged: dict[str, SymExpr] = {}
        for name in set(then_env) | set(else_env):
            then_value = then_env.get(name, before.get(name, SInit(name)))
            else_value = else_env.get(name, before.get(name, SInit(name)))
            if then_value == else_value:
                merged[name] = then_value
            else:
                merged[name] = SGamma(cond, then_value, else_value)
        self.env = merged

    def _exec_inner_loop(self, stmt: Do | While, bounds: tuple) -> None:
        for bound in bounds:
            if bound is not None:
                self._escape(self.resolve(self.eval(bound)))
        body = stmt.body
        summary = summarize_body(body)
        assigned = set(summary.scalars_written)
        if isinstance(stmt, Do):
            assigned.add(stmt.var)

        before = dict(self.env)
        # Previous-inner-iteration values are unknown.
        unknowns = {name: SUnknown() for name in assigned}
        self.env.update(unknowns)
        self.exec_block(body)

        # The exit merge demands each assigned scalar's final value.
        after = self.env
        merged = dict(before)
        for name in assigned:
            pre = before.get(name, SInit(name))
            final = self.resolve(after.get(name, unknowns[name]))
            op = _accumulation_op(final, unknowns[name])
            if op == _IDENTITY:
                merged[name] = pre
            elif op is not None:
                # The loop's net effect is pre ⊕ (opaque contribution); a
                # zero-trip loop leaves pre, which also matches pre ⊕ id.
                merged[name] = SGamma(SUnknown(), pre, make_op(op, (pre, SUnknown())))
            else:
                merged[name] = SUnknown()
        self.env = merged

    def finalize(self) -> None:
        """Demand every end-of-iteration scalar final, in place.

        Called once after the body executes, before the driver inspects
        the environment: scalar finals are observable (they feed the
        next iteration), so their definitions must be expanded.  Dead
        intermediate definitions stay unexpanded.
        """
        for name, value in list(self.env.items()):
            self.env[name] = self.resolve(value)

    # -- expressions ---------------------------------------------------------

    def eval(
        self,
        expr: Expr,
        env: dict[str, SymExpr] | None = None,
        versions: dict[str, int] | None = None,
    ) -> SymExpr:
        """Evaluate AST to a symbolic value, without expanding definitions.

        ``env``/``versions`` default to the live execution state; a
        definition being expanded passes its snapshots instead.  The
        result may contain :class:`SDef` placeholders — demand points
        push it through :meth:`resolve`.
        """
        if env is None:
            env = self.env
        if versions is None:
            versions = self._array_version
        if isinstance(expr, Num):
            return SConst(int(expr.value) if expr.is_int else expr.value)
        if isinstance(expr, Var):
            return env.get(expr.name, SInit(expr.name))
        if isinstance(expr, ArrayRef):
            sub = self.eval(expr.index, env, versions)
            self._escape(sub)
            return SLoad(expr.ref_id, expr.name, sub, versions.get(expr.name, 0))
        if isinstance(expr, BinOp):
            return make_op(
                expr.op,
                (self.eval(expr.left, env, versions), self.eval(expr.right, env, versions)),
            )
        if isinstance(expr, UnaryOp):
            if expr.op == "-":
                return make_op("neg", (self.eval(expr.operand, env, versions),))
            return make_op("not", (self.eval(expr.operand, env, versions),))
        if isinstance(expr, Call):
            return make_op(
                expr.func, tuple(self.eval(a, env, versions) for a in expr.args)
            )
        raise TypeError(f"not an expression: {expr!r}")

    def resolve(self, sym: SymExpr) -> SymExpr:
        """Expand every :class:`SDef` in ``sym`` (memoized per definition).

        This is the actual forward substitution: a placeholder expands by
        evaluating its recorded right-hand side against its snapshots,
        recursively.  Unchanged subtrees are returned as-is so load
        ``ref_id`` identities survive; rebuilt operator nodes go back
        through :func:`make_op` so the size ceiling applies to the
        expanded tree exactly as it would have eagerly.
        """
        if isinstance(sym, SDef):
            key = (sym.name, sym.version)
            cached = self._expanded.get(key)
            if cached is None:
                definition = self._defs[key]
                cached = self.resolve(
                    self.eval(definition.expr, definition.env, definition.versions)
                )
                self._expanded[key] = cached
            return cached
        if isinstance(sym, SOp):
            args = tuple(self.resolve(a) for a in sym.args)
            if all(a is b for a, b in zip(args, sym.args)):
                return sym
            return make_op(sym.op, args)
        if isinstance(sym, SGamma):
            cond = self.resolve(sym.cond)
            then_value = self.resolve(sym.then_value)
            else_value = self.resolve(sym.else_value)
            if (
                cond is sym.cond
                and then_value is sym.then_value
                and else_value is sym.else_value
            ):
                return sym
            return SGamma(cond, then_value, else_value)
        if isinstance(sym, SLoad):
            sub = self.resolve(sym.sub)
            if sub is sym.sub:
                return sym
            # The subscript materialized new loads/inits: they escape,
            # exactly as the eager evaluation of this load would have.
            self._escape(sub)
            return SLoad(sym.ref_id, sym.array, sub, sym.version)
        return sym

    def _escape(self, sym: SymExpr) -> None:
        for load in loads_in(sym):
            self.escaped_loads.add(load.ref_id)
        for init in inits_in(sym):
            self.escaped_inits.add(init.name)


def _accumulation_op(after: SymExpr, unknown_pre: SymExpr) -> str | None:
    """Does ``after`` equal ``unknown_pre ⊕ c`` for every control path?

    Returns the operator, :data:`_IDENTITY` when the value is unchanged on
    all paths, or None when the scalar is not a self-accumulation.
    """
    leaves = gamma_leaves(after)
    if leaves is None:
        return None
    ops: set[str] = set()
    for leaf in leaves:
        op = _match_self_update(leaf, unknown_pre)
        if op is None:
            return None
        if op != _IDENTITY:
            ops.add(op)
    if not ops:
        return _IDENTITY
    if len(ops) == 1:
        return ops.pop()
    return None


# ---------------------------------------------------------------------------
# Update-shape matching
# ---------------------------------------------------------------------------


def _match_self_update(leaf: SymExpr, self_value: SymExpr) -> str | None:
    """Match ``leaf == self_value ⊕ c`` with c free of ``self_value``."""
    if leaf == self_value:
        return _IDENTITY

    def is_self(e: SymExpr) -> bool:
        return e == self_value

    def free_of_self(e: SymExpr) -> bool:
        return not _contains(e, self_value)

    return _match_update_shape(leaf, is_self, free_of_self)


def _match_array_update(leaf: SymExpr, array: str, sub_key: tuple) -> tuple[str, frozenset[int]] | None:
    """Match ``leaf == A(sub) ⊕ c`` (c free of A); returns (op, load ids)."""

    def is_self(e: SymExpr) -> bool:
        return isinstance(e, SLoad) and e.array == array and e.sub.key() == sub_key

    def free_of_self(e: SymExpr) -> bool:
        return not contains_array_load(e, array)

    if is_self(leaf):
        return (_IDENTITY, frozenset({leaf.ref_id}))  # type: ignore[union-attr]
    op = _match_update_shape(leaf, is_self, free_of_self)
    if op is None or op == _IDENTITY:
        return None if op is None else (op, frozenset())
    matched = frozenset(
        load.ref_id
        for load in loads_in(leaf)
        if load.array == array and load.sub.key() == sub_key
    )
    return (op, matched)


def _match_update_shape(leaf: SymExpr, is_self, free_of_self) -> str | None:
    """Shared shape matching for additive / multiplicative / min-max."""
    # Additive: flatten over +, -, neg into signed terms.
    terms = _additive_terms(leaf)
    if terms is not None:
        self_terms = [(t, s) for t, s in terms if is_self(t)]
        others = [(t, s) for t, s in terms if not is_self(t)]
        if len(self_terms) == 1 and self_terms[0][1] == 1:
            if all(free_of_self(t) for t, _ in others) and others:
                return "+"
    # Multiplicative: flatten over *.
    factors = _multiplicative_factors(leaf)
    if factors is not None:
        self_factors = [f for f in factors if is_self(f)]
        others = [f for f in factors if not is_self(f)]
        if len(self_factors) == 1 and others and all(free_of_self(f) for f in others):
            return "*"
    # min / max, single level.
    if isinstance(leaf, SOp) and leaf.op in ("min", "max") and len(leaf.args) == 2:
        a, b = leaf.args
        if is_self(a) and free_of_self(b):
            return leaf.op
        if is_self(b) and free_of_self(a):
            return leaf.op
    return None


def _additive_terms(expr: SymExpr) -> list[tuple[SymExpr, int]] | None:
    """Flatten over + / - / neg; None when the top level is not additive."""
    if not (isinstance(expr, SOp) and expr.op in ("+", "-", "neg")):
        return None
    terms: list[tuple[SymExpr, int]] = []

    def collect(e: SymExpr, sign: int) -> None:
        if isinstance(e, SOp) and e.op == "+":
            collect(e.args[0], sign)
            collect(e.args[1], sign)
        elif isinstance(e, SOp) and e.op == "-":
            collect(e.args[0], sign)
            collect(e.args[1], -sign)
        elif isinstance(e, SOp) and e.op == "neg":
            collect(e.args[0], -sign)
        else:
            terms.append((e, sign))

    collect(expr, 1)
    return terms


def _multiplicative_factors(expr: SymExpr) -> list[SymExpr] | None:
    if not (isinstance(expr, SOp) and expr.op == "*"):
        return None
    factors: list[SymExpr] = []

    def collect(e: SymExpr) -> None:
        if isinstance(e, SOp) and e.op == "*":
            collect(e.args[0])
            collect(e.args[1])
        else:
            factors.append(e)

    collect(expr)
    return factors


def _contains(expr: SymExpr, needle: SymExpr) -> bool:
    if expr == needle:
        return True
    if isinstance(expr, SOp):
        return any(_contains(a, needle) for a in expr.args)
    if isinstance(expr, SGamma):
        return (
            _contains(expr.cond, needle)
            or _contains(expr.then_value, needle)
            or _contains(expr.else_value, needle)
        )
    if isinstance(expr, SLoad):
        return _contains(expr.sub, needle)
    return False


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def find_reductions(
    loop: Do,
    candidate_arrays: set[str],
    live_out_scalars: frozenset[str] = frozenset(),
) -> ReductionReport:
    """Run forward-substitution reduction recognition on ``loop``.

    ``candidate_arrays`` are the (written) arrays worth considering;
    ``live_out_scalars`` are scalars whose value is used after the loop —
    a scalar reduction whose running value leaks into another live-out
    scalar is rejected.

    Requires references to have been numbered (see
    :func:`repro.analysis.instrument.number_refs`).
    """
    execu = _SymExec()
    execu.env[loop.var] = SInit(loop.var)
    execu.exec_block(loop.body)
    # End-of-iteration finals are observable: demand them now so the
    # escape pass and scalar-reduction scan below see expanded values.
    execu.finalize()

    report = ReductionReport()
    report.defs_recorded = execu.defs_recorded
    report.defs_expanded = execu.defs_expanded
    validated_loads_by_store: dict[int, frozenset[int]] = {}
    provisional: list[tuple[_StoreRecord, str, frozenset[int]]] = []

    for record in execu.stores:
        if record.array not in candidate_arrays:
            continue
        result = _validate_store(record)
        if result is not None:
            op, load_ids = result
            provisional.append((record, op, load_ids))
            validated_loads_by_store[id(record)] = load_ids

    # Escape pass: loads feeding non-reduction stores escape; loads feeding
    # a reduction store escape unless they are that store's matched loads.
    # Iteration-entry scalar values reaching any store also escape: a
    # scalar whose *running* value lands in memory is order dependent and
    # cannot be a reduction accumulator.
    escaped = set(execu.escaped_loads)
    for record in execu.stores:
        exempt = validated_loads_by_store.get(id(record), frozenset())
        for load in loads_in(record.rhs):
            if load.ref_id not in exempt:
                escaped.add(load.ref_id)
        for init in inits_in(record.rhs):
            execu.escaped_inits.add(init.name)

    # A live-out scalar's final value is observed after the loop, so the
    # loads it carries escape too: a reduction temporary read after the
    # loop would otherwise be left holding one processor's partial
    # running value instead of the serial one.
    for name in live_out_scalars:
        for load in loads_in(execu.env.get(name, SInit(name))):
            escaped.add(load.ref_id)

    for record, op, load_ids in provisional:
        if load_ids & escaped:
            continue  # the loaded value is also used elsewhere
        candidate = ReductionCandidate(
            array=record.array,
            op=op,
            store_ref_id=record.store_ref_id,
            load_ref_ids=load_ids,
            line=record.stmt.line,
        )
        report.candidates.append(candidate)
        report.redux_refs[record.store_ref_id] = op
        for ref_id in load_ids:
            report.redux_refs[ref_id] = op

    report.reduction_stmt_ids = frozenset(
        id(record.stmt) for record, _, loads in provisional
        if not (loads & escaped)
    )

    _find_scalar_reductions(execu, loop, live_out_scalars, report)
    return report


def _validate_store(record: _StoreRecord) -> tuple[str, frozenset[int]] | None:
    leaves = gamma_leaves(record.rhs)
    if leaves is None:
        return None
    sub_key = record.sub.key()
    ops: set[str] = set()
    load_ids: set[int] = set()
    for leaf in leaves:
        match = _match_array_update(leaf, record.array, sub_key)
        if match is None:
            return None
        op, ids = match
        load_ids |= ids
        if op != _IDENTITY:
            ops.add(op)
    if len(ops) != 1:
        return None
    return ops.pop(), frozenset(load_ids)


def _find_scalar_reductions(
    execu: _SymExec,
    loop: Do,
    live_out_scalars: frozenset[str],
    report: ReductionReport,
) -> None:
    for name, final in execu.env.items():
        if name == loop.var:
            continue
        if not contains_init(final, name):
            continue
        if final == SInit(name):
            continue  # never updated
        if name in execu.escaped_inits:
            continue
        # The running value must not leak into other live-out scalars.
        if any(
            contains_init(execu.env.get(other, SInit(other)), name)
            for other in live_out_scalars
            if other != name
        ):
            continue
        op = _accumulation_op(final, SInit(name))
        if op is not None and op != _IDENTITY:
            report.scalar_reductions[name] = op
