"""Static vectorizability classifier for the whole-block engine.

Decides whether a target loop body can be lowered to NumPy index-vector
kernels (:mod:`repro.interp.vectorized_spec`): straight-line
gather/compute/scatter assignments, mask-convertible ``if``s, nested
counted ``do`` loops, and syntactically matched reductions — array
``A(e) = A(e) op rest`` updates and scalar ``s = s op rest`` /
``s = max(s, rest)`` / ``s = min(rest, s)`` folds — plus the array
reduction that flows through a private scalar temporary, ``t = A(e) op
rest; ...; A(e) = t`` (SPICE LOAD do40), when forward substitution
(:func:`repro.analysis.reduction.find_reductions`) validated it and the
temporary is a pure carrier: the store is its only reader, it is dead
after the loop, and no other update of ``A`` sits between the load and
the store.  Everything else — ``while`` loops, writes to untested shared
arrays, any other read of a reduction array, dynamic-kind operators
(``**``) — is rejected with a recorded reason, and the caller falls back
to the compiled per-iteration engine.

The classifier is deliberately conservative: acceptance promises that
the vectorized lowering is *bit-identical* to the compiled engine on
runs it commits; rejection only costs the fallback's speed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.analysis.reduction import ReductionCandidate
from repro.dsl.ast_nodes import (
    ArrayRef,
    Assign,
    BinOp,
    Call,
    Do,
    Expr,
    If,
    Num,
    Program,
    Stmt,
    UnaryOp,
    Var,
    While,
    expr_equal,
)

#: intrinsics the whole-block engine reproduces bit for bit.  The
#: IEEE-exact ones run as NumPy element-wise kernels; exp/log/sin/cos
#: are evaluated through ``math.*`` per active lane — the very call the
#: scalar interpreter makes — because libm and NumPy's SIMD kernels may
#: differ in the last ulp.
SAFE_INTRINSICS = frozenset(
    {
        "abs", "sqrt", "floor", "int", "real", "sign", "mod", "min", "max",
        "exp", "log", "sin", "cos",
    }
)


@dataclass(frozen=True)
class VectorizeDecision:
    """Outcome of classifying one loop for the vectorized engine."""

    ok: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def _reject(reason: str) -> VectorizeDecision:
    return VectorizeDecision(False, reason)


class _Reject(Exception):
    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class _Classifier:
    def __init__(self, program: Program, plan) -> None:
        self.kinds: dict[str, str] = {d.name: d.kind for d in program.decls}
        self.arrays = set(program.array_decls())
        self.tested = set(plan.tested_arrays)
        self.redux_refs: Mapping[int, str] = plan.redux_refs
        self.scalar_reductions: Mapping[str, str] = plan.scalar_reductions
        self.live_out: frozenset[str] = frozenset(plan.live_out_scalars)
        self.candidates = plan.reductions.candidates
        self._redux_ops_seen: dict[str, set[str]] = {}
        #: accepted reductions through a temporary: the store's ref_id,
        #: and id() of each ``t = A(e) op rest`` assignment feeding it.
        self.temp_stores: set[int] = set()
        self.temp_assigns: dict[int, ReductionCandidate] = {}

    # -- expression kinds ---------------------------------------------------

    def kind_of(self, expr: Expr) -> str:
        """Static value kind ('integer' | 'real'), mirroring the scalar
        interpreter's numeric rules; rejects dynamically-kinded forms."""
        if isinstance(expr, Num):
            return "integer" if expr.is_int else "real"
        if isinstance(expr, Var):
            kind = self.kinds.get(expr.name)
            if kind is None:
                raise _Reject(f"undeclared scalar {expr.name!r}")
            return kind
        if isinstance(expr, ArrayRef):
            if expr.name not in self.arrays:
                raise _Reject(f"undeclared array {expr.name!r}")
            if self.redux_refs.get(expr.ref_id) is not None:
                raise _Reject(
                    "reduction-array load outside its own update statement"
                )
            self.check_expr(expr.index)
            return self.kinds[expr.name]
        if isinstance(expr, BinOp):
            if expr.op == "**":
                raise _Reject("** operator has a value-dependent result kind")
            left = self.kind_of(expr.left)
            right = self.kind_of(expr.right)
            if expr.op in ("==", "/=", "<", "<=", ">", ">=", "and", "or"):
                return "integer"
            if expr.op in ("+", "-", "*", "/"):
                return "integer" if left == right == "integer" else "real"
            raise _Reject(f"operator {expr.op!r} not vectorizable")
        if isinstance(expr, UnaryOp):
            if expr.op == "not":
                self.kind_of(expr.operand)
                return "integer"
            return self.kind_of(expr.operand)
        if isinstance(expr, Call):
            return self.kind_of_call(expr)
        raise _Reject(f"cannot vectorize {type(expr).__name__}")

    def kind_of_call(self, expr: Call) -> str:
        func = expr.func
        if func not in SAFE_INTRINSICS:
            raise _Reject(f"intrinsic {func!r} is not vectorizable")
        arg_kinds = [self.kind_of(arg) for arg in expr.args]
        if func in ("min", "max"):
            if len(set(arg_kinds)) > 1:
                raise _Reject(
                    f"{func}() over mixed integer/real arguments has a "
                    "value-dependent result kind"
                )
            return arg_kinds[0]
        if func in ("sqrt", "exp", "log", "sin", "cos"):
            return "real"
        if func in ("floor", "int"):
            return "integer"
        if func == "real":
            return "real"
        if func in ("abs", "sign"):
            return arg_kinds[0]
        if func == "mod":
            return "integer" if set(arg_kinds) == {"integer"} else "real"
        raise _Reject(f"intrinsic {func!r} is not vectorizable")

    def check_expr(self, expr: Expr) -> None:
        self.kind_of(expr)

    # -- statements ---------------------------------------------------------

    def check_block(self, body: list[Stmt]) -> None:
        for stmt in body:
            self.check_stmt(stmt)

    def check_stmt(self, stmt: Stmt) -> None:
        if isinstance(stmt, Assign):
            self.check_assign(stmt)
        elif isinstance(stmt, If):
            self.check_expr(stmt.cond)
            self.check_block(stmt.then_body)
            self.check_block(stmt.else_body)
        elif isinstance(stmt, Do):
            self.check_expr(stmt.start)
            self.check_expr(stmt.stop)
            if stmt.step is not None:
                self.check_expr(stmt.step)
            if self.kinds.get(stmt.var) is None:
                raise _Reject(f"undeclared scalar {stmt.var!r}")
            self.check_block(stmt.body)
        elif isinstance(stmt, While):
            raise _Reject("while loop (data-dependent trip count)")
        else:
            raise _Reject(f"cannot vectorize {type(stmt).__name__}")

    def check_assign(self, stmt: Assign) -> None:
        target = stmt.target
        if isinstance(target, Var):
            if self.kinds.get(target.name) is None:
                raise _Reject(f"undeclared scalar {target.name!r}")
            if target.name in self.scalar_reductions:
                self.check_scalar_reduction(stmt)
                return
            cand = self.temp_assigns.get(id(stmt))
            if cand is not None:
                # ``t = A(e) op rest``: the load is the candidate's own;
                # only its subscript and the contribution are checked.
                load, rest = self.split_update(
                    stmt.expr, cand.op,
                    lambda node: node.ref_id in cand.load_ref_ids,
                )
                self.check_expr(load.index)
                self._forbid_redux_loads(rest)
                self.check_expr(rest)
                return
            self.check_expr(stmt.expr)
            return
        assert isinstance(target, ArrayRef)
        if target.name not in self.arrays:
            raise _Reject(f"undeclared array {target.name!r}")
        self.check_expr(target.index)
        if self.redux_refs.get(target.ref_id) is not None:
            self.check_array_reduction(stmt, target)
            return
        if target.name not in self.tested:
            raise _Reject(
                f"writes untested shared array {target.name!r} "
                "(cross-iteration visibility)"
            )
        self._forbid_redux_loads(stmt.expr)
        self.check_expr(stmt.expr)

    def check_array_reduction(self, stmt: Assign, target: ArrayRef) -> None:
        """Accept only the direct forms of :meth:`split_update`, or
        ``A(e) = t`` for a temporary :meth:`find_reduction_temporaries`
        accepted."""
        if self.kinds.get(target.name) == "integer":
            raise _Reject(
                f"integer-kind reduction array {target.name!r} "
                "(float64 partial fold would change truncation points)"
            )
        ops = self._redux_ops_seen.setdefault(target.name, set())
        ops.add(self.redux_refs[target.ref_id])
        if len(ops) > 1:
            raise _Reject(
                f"mixed reduction operators on {target.name!r} "
                "(a single exec-order ufunc fold cannot interleave them)"
            )
        if target.ref_id in self.temp_stores:
            return  # ``A(e) = t``: the temporary's assignments carry the rest
        _load, rest = self.split_update(
            stmt.expr,
            self.redux_refs[target.ref_id],
            lambda node: (
                node.name == target.name
                and expr_equal(node.index, target.index)
            ),
        )
        self._forbid_redux_loads(rest)
        self.check_expr(rest)

    def split_update(self, expr: Expr, op: str, is_own) -> tuple[ArrayRef, Expr]:
        """``(self load, rest)`` of a direct ``op``-reduction update
        ``A(e) ± rest``, ``rest + A(e)``, ``A(e) * rest`` or ``rest *
        A(e)``, the self load being a reduction reference ``is_own``
        accepts: the per-row contribution is then ``rest`` (negated for
        ``-``) and the partial is a pure exec-order ufunc fold."""
        if op not in ("+", "*"):
            raise _Reject(f"{op}-reduction is not vectorizable")
        if not isinstance(expr, BinOp):
            raise _Reject("reduction dataflow through temporaries")

        def is_self(node: Expr) -> bool:
            return (
                isinstance(node, ArrayRef)
                and self.redux_refs.get(node.ref_id) is not None
                and is_own(node)
            )

        allowed = ("+", "-") if op == "+" else ("*",)
        if expr.op in allowed and is_self(expr.left):
            return expr.left, expr.right
        if expr.op in ("+", "*") and expr.op in allowed and is_self(expr.right):
            return expr.right, expr.left
        raise _Reject("reduction dataflow through temporaries")

    def find_reduction_temporaries(self, body: list[Stmt]) -> None:
        """Accept each validated reduction whose store is ``A(e) = t``
        and whose temporary ``t`` is a pure carrier of ``A(e) op rest``.

        :func:`~repro.analysis.reduction.find_reductions` already proved
        the store's value is the candidate's own load ⊕ a contribution on
        every path.  For the lanes to log that contribution instead of
        materializing the running value, ``t`` must also be: real-kind,
        dead after the loop, read by that store alone, assigned only in
        direct form from the candidate's loads, in the store's own loop
        nest and ahead of it, with no other update of ``A`` in between.
        Anything short of that leaves the loads to the existing
        "reduction-array load outside its own update statement" reject.
        """
        stmts = list(_walk_with_nest(body, ()))
        for cand in self.candidates:
            found = [
                (at, nest, stmt) for at, (stmt, nest) in enumerate(stmts)
                if isinstance(stmt, Assign)
                and isinstance(stmt.target, ArrayRef)
                and stmt.target.ref_id == cand.store_ref_id
            ]
            if len(found) != 1 or not isinstance(found[0][2].expr, Var):
                continue
            store_at, store_nest, store = found[0]
            temp = store.expr.name
            if (
                temp in self.live_out
                or temp in self.scalar_reductions
                or self.kinds.get(temp) != "real"
                or _scalar_reads(stmts, temp) != 1
            ):
                continue
            assigns = [
                (at, nest, stmt) for at, (stmt, nest) in enumerate(stmts)
                if (isinstance(stmt, Assign) and isinstance(stmt.target, Var)
                    and stmt.target.name == temp)
                or (isinstance(stmt, Do) and stmt.var == temp)
            ]
            if not assigns or not all(
                self._feeds_store(
                    stmts, stmt, at, nest, store_at, store_nest, cand
                )
                for at, nest, stmt in assigns
            ):
                continue
            self.temp_stores.add(cand.store_ref_id)
            self.temp_assigns.update(
                (id(stmt), cand) for _at, _n, stmt in assigns
            )

    def _feeds_store(
        self, stmts, stmt, at, nest, store_at, store_nest, cand
    ) -> bool:
        if not isinstance(stmt, Assign) or nest != store_nest or at > store_at:
            return False
        try:
            self.split_update(
                stmt.expr,
                cand.op,
                lambda node: (
                    node.name == cand.array and node.ref_id in cand.load_ref_ids
                ),
            )
        except _Reject:
            return False
        return not any(
            isinstance(other, Assign)
            and isinstance(other.target, ArrayRef)
            and other.target.name == cand.array
            for other, _nest in stmts[at + 1:store_at]
        )

    def check_scalar_reduction(self, stmt: Assign) -> None:
        rest = self.scalar_reduction_rest(stmt)
        from repro.analysis.symtab import scalar_reads_in

        used = scalar_reads_in(rest) & set(self.scalar_reductions)
        if used:
            raise _Reject(
                f"scalar reduction {sorted(used)[0]!r} read outside its update"
            )
        self.check_expr(rest)

    def scalar_reduction_rest(self, stmt: Assign) -> Expr:
        """The contribution operand of a direct scalar reduction update:
        ``s = s op rest`` / ``s = rest op s``, or ``s = max(s, rest)`` /
        ``s = max(rest, s)`` (and ``min``) when the plan recorded that
        fold operator for ``s``."""
        assert isinstance(stmt.target, Var)
        name = stmt.target.name
        expr = stmt.expr

        def is_self(node: Expr) -> bool:
            return isinstance(node, Var) and node.name == name

        def reads_self(node: Expr) -> bool:
            from repro.dsl.ast_nodes import walk_expressions

            return any(
                isinstance(sub, Var) and sub.name == name
                for sub in walk_expressions(node)
            )

        if isinstance(expr, BinOp) and expr.op in ("+", "*", "-"):
            if is_self(expr.left) and not reads_self(expr.right):
                return expr.right
            if expr.op in ("+", "*") and is_self(expr.right) and not reads_self(expr.left):
                return expr.left
        if (
            isinstance(expr, Call)
            and expr.func == self.scalar_reductions[name]  # min / max
            and len(expr.args) == 2
        ):
            left, right = expr.args
            rest = right if is_self(left) else left if is_self(right) else None
            if rest is not None and not reads_self(rest):
                if self.kind_of(rest) != self.kinds[name]:
                    raise _Reject(
                        f"{expr.func}() over mixed integer/real arguments "
                        "has a value-dependent result kind"
                    )
                return rest
        raise _Reject(
            f"scalar reduction {name!r} not in direct ``s = s op expr`` form"
        )

    def _forbid_redux_loads(self, expr: Expr) -> None:
        from repro.dsl.ast_nodes import walk_expressions

        for node in walk_expressions(expr):
            if (
                isinstance(node, ArrayRef)
                and self.redux_refs.get(node.ref_id) is not None
            ):
                raise _Reject(
                    "reduction-array load outside its own update statement"
                )

    def check_scalar_reduction_usage(self, body: list[Stmt]) -> None:
        """Scalar-reduction variables may be read only inside their own
        update statement (the vectorized fold never materializes the
        running value per row)."""
        from repro.analysis.symtab import scalar_reads_in
        from repro.dsl.ast_nodes import walk_statements

        names = set(self.scalar_reductions)
        if not names:
            return
        for stmt in walk_statements(body):
            if isinstance(stmt, Assign):
                if (
                    isinstance(stmt.target, Var)
                    and stmt.target.name in names
                ):
                    continue  # validated separately by check_scalar_reduction
                exprs = [stmt.expr]
                if isinstance(stmt.target, ArrayRef):
                    exprs.append(stmt.target.index)
            elif isinstance(stmt, If):
                exprs = [stmt.cond]
            elif isinstance(stmt, Do):
                exprs = [stmt.start, stmt.stop]
                if stmt.step is not None:
                    exprs.append(stmt.step)
            elif isinstance(stmt, While):
                exprs = [stmt.cond]
            else:
                continue
            for expr in exprs:
                used = scalar_reads_in(expr) & names
                if used:
                    raise _Reject(
                        "scalar reduction "
                        f"{sorted(used)[0]!r} read outside its update"
                    )


def classify_loop(program: Program, loop: Do, plan) -> VectorizeDecision:
    """Classify ``loop`` for whole-block vectorized execution.

    ``plan`` is the loop's :class:`InstrumentationPlan`.  Returns an
    accepting decision or the first rejection reason encountered (the
    reason the CLI reports when the engine degrades to compiled).
    """
    classifier = _Classifier(program, plan)
    if classifier.kinds.get(loop.var) is None:
        return _reject(f"undeclared loop variable {loop.var!r}")
    classifier.find_reduction_temporaries(loop.body)
    try:
        classifier.check_scalar_reduction_usage(loop.body)
        classifier.check_block(loop.body)
    except _Reject as reject:
        return _reject(reject.reason)
    return VectorizeDecision(True)


def _walk_with_nest(body: list[Stmt], nest: tuple):
    """Pre-order ``(statement, enclosing inner-loop ids)`` pairs; ``if``
    arms share their parent's nest."""
    for stmt in body:
        yield stmt, nest
        if isinstance(stmt, If):
            yield from _walk_with_nest(stmt.then_body, nest)
            yield from _walk_with_nest(stmt.else_body, nest)
        elif isinstance(stmt, (Do, While)):
            yield from _walk_with_nest(stmt.body, nest + (id(stmt),))


def _scalar_reads(stmts, name: str) -> int:
    """How many times the statements read scalar ``name``."""
    from repro.dsl.ast_nodes import statement_expressions, walk_expressions

    count = 0
    for stmt, _nest in stmts:
        for expr in statement_expressions(stmt):
            if isinstance(expr, Var) and expr is getattr(stmt, "target", None):
                continue  # the assigned scalar, not a read
            count += sum(
                1 for node in walk_expressions(expr)
                if isinstance(node, Var) and node.name == name
            )
    return count
