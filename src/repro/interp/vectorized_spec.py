"""Whole-block vectorized speculative execution engine.

Executes every iteration of a marked doall *at once*: each statement of
the (classifier-accepted, see :mod:`repro.analysis.vectorize`) loop body
is lowered to NumPy kernels over index vectors with one lane per
iteration — gathers for loads, last-writer-wins scatters for private
stores, exec-order ufunc folds for reduction partials — and the shadow
marks are staged in bulk on the same index vectors through
:meth:`repro.core.shadow.ShadowArray.stage_stream_vec`.

The engine is *transactional*: evaluation only appends to logs (scalar
value events, private write/base-read logs, partial contributions,
shadow emissions) and touches no runtime structure until every dynamic
check has passed.  Any condition the lockstep lowering cannot reproduce
bit-identically — a value the scalar engines would compute differently
(int64 overflow, mixed int/float comparison beyond 2^53), a condition
they would turn into an exception (out-of-bounds subscript, zero
divisor), a cross-iteration dependence the lanes cannot see (a scalar or
private element carried between iterations of one virtual processor), or
an eager speculation failure — raises :class:`VectorizeBail` *before*
any commit.  The caller then reruns the block per-iteration on the
compiled engine over the very same (untouched) structures, which
reproduces the exact state, costs, marks and raised errors by
construction.  Committed vectorized runs are bit-identical to the
compiled/walk engines (parity-tested on the paper workloads and fuzzed).
"""

from __future__ import annotations

import math
import operator
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.core.reduction_exec import REDUCTION_IDENTITY
from repro.core.shadow import (
    KIND_READ,
    KIND_REDUX,
    KIND_WRITE,
    OP_CODES,
    Granularity,
    ShadowMarker,
)
from repro.dsl.ast_nodes import (
    ArrayDecl,
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
    walk_statements,
)
from repro.interp.costs import CATEGORIES, IterationCost
from repro.interp.env import Environment

_I64 = np.int64
_BIG = 1 << 62          # safe headroom below int64 overflow
_F_EXACT = 1 << 53      # ints exactly representable as float64
_NESTED_TRIP_CAP = 1_000_000  # lockstep nested-do step budget

#: scalar-reduction fold steps, applied to Python values in exec order.
_SCALAR_FOLDS = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "max": max, "min": min,
}


class VectorizeBail(Exception):
    """The whole-block attempt cannot proceed bit-identically.

    Raised strictly before any state is committed; the caller falls back
    to the compiled per-iteration engine with :attr:`reason` recorded.
    """

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class _Atom:
    """One pending-read taint source: a tested load's index vector.

    ``present`` marks the lanes on which the taint is still pending; the
    arrays are treated as immutable (copy-on-write) so atoms can be
    shared across scalar states and expression values.
    """

    __slots__ = ("name", "idx0", "present")

    def __init__(self, name: str, idx0: np.ndarray, present: np.ndarray):
        self.name = name
        self.idx0 = idx0
        self.present = present


def _merge_atoms(left: tuple, right: tuple) -> tuple:
    """Union of two taint sets.

    Duplicate ``(array, index)`` pairs are kept here and collapsed at
    flush time (:meth:`_BlockExecutor._flush_atoms`) — the scalar
    engines' frozensets make a flush emit each distinct pair once, and
    per-flush dedup reproduces that with cheap concatenation in between.
    """
    if not right:
        return left
    if not left:
        return right
    return left + right


def _blend_atoms(old: tuple, new: tuple, mask: np.ndarray) -> tuple:
    """The taints of ``where(mask, new, old)``.

    An atom on both sides (the assigned expression read the scalar
    itself) keeps its presence whole, ``present & ~mask | present &
    mask``, so a scalar updated inside a masked loop does not split
    every taint it holds in two on each step.
    """
    if not old:
        return _mask_atoms(new, mask)
    if not new:
        return _mask_atoms(old, ~mask)
    shared = {id(atom) for atom in old} & {id(atom) for atom in new}
    return (
        tuple(atom for atom in old if id(atom) in shared)
        + _mask_atoms(tuple(a for a in old if id(a) not in shared), ~mask)
        + _mask_atoms(tuple(a for a in new if id(a) not in shared), mask)
    )


def _mask_atoms(atoms: tuple, mask: np.ndarray) -> tuple:
    # The emptiness filter bounds the live atom count inside masked
    # accumulation loops — without it dead taints pile up per step and
    # the per-statement masking cost goes quadratic.  Masking and the
    # filter run over one stacked matrix so the cost is a couple of C
    # calls, not a pair of numpy ops per atom.
    if not atoms:
        return ()
    if len(atoms) == 1:
        present = atoms[0].present & mask
        if present.any():
            return (_Atom(atoms[0].name, atoms[0].idx0, present),)
        return ()
    stacked = np.stack([atom.present for atom in atoms]) & mask
    keep = stacked.any(axis=1)
    return tuple(
        _Atom(atom.name, atom.idx0, stacked[i])
        for i, atom in enumerate(atoms)
        if keep[i]
    )


class _Val:
    """A lane-vector expression value with its static kind and taints."""

    __slots__ = ("vec", "kind", "atoms")

    def __init__(self, vec: np.ndarray, kind: str, atoms: tuple = ()):
        self.vec = vec
        self.kind = kind
        self.atoms = atoms


class _ScalarState:
    """Per-lane state of one scalar variable."""

    __slots__ = (
        "vec", "assigned", "assigned_all", "atoms", "kind",
        "initially_defined",
    )

    def __init__(self, vec, assigned, kind, initially_defined):
        self.vec = vec
        self.assigned = assigned
        #: fast-path flag: True once every lane has assigned this scalar.
        self.assigned_all = bool(assigned.all())
        self.atoms: tuple = ()
        self.kind = kind
        self.initially_defined = initially_defined


class _PrivateState:
    """Staged per-lane view of one privatized array.

    The lanes' own stores live in a sparse store: the sorted, unique
    cell keys ``lane * size + idx0`` and the newest value stored at each,
    so memory grows with the stores executed, not with lanes × size.  A
    trailing sentinel key above every cell key keeps each
    ``searchsorted`` position in range.
    """

    __slots__ = ("base", "keys", "vals", "writes", "base_reads", "size")

    def __init__(self, base: np.ndarray):
        self.base = base
        self.size = int(base.size)
        self.keys = np.array([np.iinfo(_I64).max], dtype=_I64)
        self.vals = np.zeros(1, dtype=base.dtype)
        #: (lane_sel, idx0_sel, cast values, seq) per store event.
        self.writes: list = []
        #: (lane_sel, idx0_sel) per load that fell through to the base.
        self.base_reads: list = []

    def lookup(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(own, at)``: which ``keys`` a lane has stored, and where."""
        at = np.searchsorted(self.keys, keys)
        return self.keys[at] == keys, at

    def store(self, keys: np.ndarray, vals: np.ndarray) -> None:
        """Record one store event; ``keys`` are strictly increasing (one
        store per lane, lanes ascending).  A key already present takes
        the new value — the last write wins."""
        own, at = self.lookup(keys)
        self.vals[at[own]] = vals[own]
        fresh = ~own
        if fresh.any():
            self.keys = np.insert(self.keys, at[fresh], keys[fresh])
            self.vals = np.insert(self.vals, at[fresh], vals[fresh])


class _ReduxTemp:
    """Per-lane state of a scalar temporary carrying one array reduction
    (``t = A(e) op rest; ...; A(e) = t``, classifier-accepted).

    The lanes never hold the running value ``A(e) op rest``; they hold
    the element index, the contribution ``rest`` (negated for ``-``) and
    the sequence number of the assignment, so the store can log the
    contribution for the exec-order partial fold and the commit can
    reproduce each processor's final ``t`` exactly.
    """

    __slots__ = ("array", "op", "idx0", "contrib", "seq")

    def __init__(self, array: str, op: str, rows: int):
        self.array = array
        self.op = op
        self.idx0 = np.zeros(rows, dtype=_I64)
        self.contrib = np.zeros(rows, dtype=np.float64)
        self.seq = np.full(rows, -1, dtype=_I64)


def execute_vectorized_block(
    program: Program,
    loop: Do,
    *,
    values: Sequence[int],
    positions: Sequence[int],
    assignment: Sequence[Sequence[int]],
    num_procs: int,
    tested: Iterable[str],
    redux_refs: Mapping[int, str],
    scalar_reductions: Mapping[str, str],
    live_out_scalars: Iterable[str],
    value_based: bool,
    marker: ShadowMarker | None,
    privates: Mapping[str, object],
    partials: Mapping[str, object],
    proc_envs,
    shared_env: Environment,
    need_costs: bool = True,
) -> list[tuple[int, IterationCost]]:
    """Execute ``positions`` (a subset of the doall's iteration space, or
    all of it) in lockstep and commit the results.

    Returns ``(position, IterationCost)`` pairs in execution order —
    empty with ``need_costs=False`` (schedule reuse with memoized
    times), which skips the per-iteration cost materialization.
    Raises :class:`VectorizeBail` — with *nothing* committed — when the
    lockstep lowering cannot guarantee bit-identity; the caller must
    then rerun the same positions on the compiled engine.
    """
    executor = _BlockExecutor(
        program, loop,
        values=values, positions=positions, assignment=assignment,
        num_procs=num_procs, tested=tested, redux_refs=redux_refs,
        scalar_reductions=scalar_reductions,
        live_out_scalars=live_out_scalars, value_based=value_based,
        marker=marker, privates=privates, partials=partials,
        proc_envs=proc_envs, shared_env=shared_env, need_costs=need_costs,
    )
    return executor.run()


class _BlockExecutor:
    def __init__(
        self, program, loop, *, values, positions, assignment, num_procs,
        tested, redux_refs, scalar_reductions, live_out_scalars,
        value_based, marker, privates, partials, proc_envs, shared_env,
        need_costs=True,
    ):
        self.need_costs = need_costs
        self.program = program
        self.loop = loop
        self.values = values
        self.positions = np.asarray(list(positions), dtype=_I64)
        self.num_procs = num_procs
        self.tested = frozenset(tested)
        self.redux_refs = dict(redux_refs)
        self.scalar_reductions = dict(scalar_reductions)
        self.live_out_scalars = live_out_scalars
        self.value_based = bool(value_based) and bool(self.tested)
        self.marker = marker
        self.privates = privates
        self.partials = partials
        self.proc_envs = proc_envs
        self.shared_env = shared_env

        self.kinds = {decl.name: decl.kind for decl in program.decls}
        self.sizes = {
            decl.name: decl.size
            for decl in program.decls
            if isinstance(decl, ArrayDecl)
        }

        R = int(self.positions.size)
        self.R = R
        #: the all-lanes mask shared by every top-level statement; the
        #: hot paths test identity against it to skip compressions.
        self._full = np.ones(R, dtype=bool)
        self._rows_all = np.arange(R)
        self._sel_key = None
        self._sel_val = None
        proc_of = np.zeros(len(values), dtype=_I64)
        k_of = np.zeros(len(values), dtype=_I64)
        for proc, plist in enumerate(assignment):
            if len(plist):
                at = np.asarray(plist, dtype=_I64)
                proc_of[at] = proc
                k_of[at] = np.arange(at.size, dtype=_I64)
        self.proc_of = proc_of[self.positions]
        self.k_of = k_of[self.positions]
        #: deterministic round-robin execution order of the lanes.
        self.row_rank = self.k_of * num_procs + self.proc_of
        if marker is not None:
            self.granule = (
                self.positions
                if marker.granularity is Granularity.ITERATION
                else self.proc_of
            )
        else:
            self.granule = self.positions
        self.procs_present = sorted({int(p) for p in self.proc_of})

        self.cost = {cat: np.zeros(R, dtype=_I64) for cat in CATEGORIES}
        self.seq = 0
        #: (name, lane_sel, idx0_sel, kind, opcode, seq) shadow emissions.
        self.emissions: list = []
        self.scalar_states: dict[str, _ScalarState] = {}
        #: (name, seq, lane_sel, value_sel) scalar assignment events.
        self.scalar_events: list = []
        #: per reduction array: (lane_sel, idx0_sel, contrib_sel, seq).
        self.redux_logs: dict[str, list] = {}
        #: per scalar reduction: (lane_sel, contrib_sel, seq, form), where
        #: form is ``(fold step, self operand first)``.
        self.scalar_redux_logs: dict[str, list] = {}
        self.private_states: dict[str, _PrivateState] = {}
        self.redux_temps: dict[str, _ReduxTemp] = {}

        self.assigned_in_body: set[str] = {loop.var}
        for stmt in walk_statements(loop.body):
            if isinstance(stmt, Assign) and isinstance(stmt.target, Var):
                self.assigned_in_body.add(stmt.target.name)
            elif isinstance(stmt, Do):
                self.assigned_in_body.add(stmt.var)

    # -- small helpers -------------------------------------------------------

    def _bail(self, reason: str):
        raise VectorizeBail(reason)

    def _charge(self, cat: str, mask: np.ndarray) -> None:
        if mask is self._full:
            self.cost[cat] += 1
        else:
            self.cost[cat] += mask

    def _sel_of(self, mask: np.ndarray) -> np.ndarray:
        """``np.flatnonzero(mask)`` with a one-entry identity cache —
        every access in a statement shares the statement's mask object,
        so the compression is computed once per mask, not per access.
        The result is shared read-only; callers must not mutate it."""
        if mask is self._full:
            return self._rows_all
        if self._sel_key is mask:
            return self._sel_val
        sel = np.flatnonzero(mask)
        self._sel_key = mask
        self._sel_val = sel
        return sel

    def _next_seq(self) -> int:
        seq = self.seq
        self.seq = seq + 1
        return seq

    def _emit(self, name, idx0, mask, kind, opcode=0) -> None:
        """Record one shadow-mark event (charged like a flushed mark)."""
        self._charge("marks", mask)
        if mask is self._full:
            self.emissions.append(
                (name, self._rows_all, idx0, kind, opcode, self._next_seq())
            )
            return
        sel = self._sel_of(mask)
        if sel.size:
            self.emissions.append(
                (name, sel, idx0[sel], kind, opcode, self._next_seq())
            )
        else:
            self._next_seq()

    def _emit_pairs(self, name, lanes, idx_sel, kind, opcode=0) -> None:
        """Like :meth:`_emit` but over explicit (lane, element) pairs."""
        if lanes.size:
            self.cost["marks"] += np.bincount(lanes, minlength=self.R)
            self.emissions.append(
                (name, lanes, idx_sel, kind, opcode, self._next_seq())
            )
        else:
            self._next_seq()

    def _flush_atoms(self, atoms: tuple, mask: np.ndarray) -> None:
        """Report every pending read an expression's taints hold.

        ``mask`` bounds the reporting lanes: scalar reads hand their
        state's taints over unmasked (see :meth:`_eval_var`), and the
        flush — the only consumer that observes presence — intersects
        once here instead of at every propagation step.

        Per flush event each distinct (lane, array, element) pair emits
        exactly one READ — the frozenset semantics of the scalar
        engines' taint sets; within-flush emission order is immaterial
        to the committed shadow state, the mark counts and the eager
        verdict.
        """
        full = mask is self._full
        per_name: dict[str, list] = {}
        for atom in atoms:
            per_name.setdefault(atom.name, []).append(atom)
        for name, group in per_name.items():
            if len(group) == 1:
                present = group[0].present if full else group[0].present & mask
                sel = np.flatnonzero(present)
                self._emit_pairs(name, sel, group[0].idx0[sel], KIND_READ)
                continue
            present = np.stack([a.present for a in group])
            if not full:
                present &= mask
            rows, lanes = np.nonzero(present)
            idxs = np.stack([a.idx0 for a in group])[rows, lanes]
            # Guard arithmetic in Python ints: a fixed-width product can
            # wrap for shadow sizes >= 2**31 and silently pick the
            # narrow key (overflow-tested).
            stride = self.sizes.get(name, 0) + 1
            if self.R * stride < 2**62:
                keys = lanes * np.int64(stride) + idxs
                if self.R * stride < 2**31:
                    keys = keys.astype(np.int32)
                _uniq, first = np.unique(keys, return_index=True)
            else:  # pragma: no cover - needs a >2**62-element key space
                _uniq, first = np.unique(
                    np.stack([lanes, idxs]), axis=1, return_index=True
                )
            self._emit_pairs(name, lanes[first], idxs[first], KIND_READ)

    def _dtype_of(self, kind: str):
        return _I64 if kind == "integer" else np.float64

    def _zeros(self, kind: str) -> np.ndarray:
        return np.zeros(self.R, dtype=self._dtype_of(kind))

    def _private_state(self, name: str) -> _PrivateState:
        state = self.private_states.get(name)
        if state is None:
            copies = self.privates[name]
            # All per-processor rows are identical at loop entry (tiled
            # copy-in), so any row serves as the pre-block base image.
            state = _PrivateState(copies.data[0].copy())
            self.private_states[name] = state
        return state

    def _scalar_state(self, name: str) -> _ScalarState:
        state = self.scalar_states.get(name)
        if state is None:
            kind = self.kinds.get(name)
            if kind is None:
                self._bail(f"undeclared scalar {name!r}")
            vec = self._zeros(kind)
            env = self.proc_envs[self.procs_present[0]]
            initially_defined = name in env.scalars
            # A scalar reduction's running value is folded at commit and
            # never read per lane (its identity may be +-inf).
            if initially_defined and name not in self.scalar_reductions:
                try:
                    vec[:] = env.scalars[name]
                except (OverflowError, ValueError):
                    self._bail(f"scalar {name!r} exceeds the vector range")
            state = _ScalarState(
                vec, np.zeros(self.R, dtype=bool), kind, initially_defined
            )
            self.scalar_states[name] = state
        return state

    # -- numeric guards ------------------------------------------------------

    def _guard_int_range(self, vec: np.ndarray, mask: np.ndarray, what: str):
        act = vec[mask]
        if act.size and (int(act.min()) <= -_BIG or int(act.max()) >= _BIG):
            self._bail(f"integer magnitude in {what} exceeds the vector range")

    def _cast_to_int(self, val: _Val, mask: np.ndarray, what: str) -> np.ndarray:
        """Mirror Python ``int(x)`` truncation; bail where the scalar
        engines would raise or int64 cannot hold the result."""
        if val.kind == "integer":
            return val.vec
        act = val.vec[mask]
        if act.size:
            if not np.all(np.isfinite(act)):
                self._bail(f"non-finite value cast to integer in {what}")
            if float(np.abs(act).max()) >= float(_BIG):
                self._bail(f"float magnitude in {what} exceeds the vector range")
        return np.trunc(np.where(mask, val.vec, 0.0)).astype(_I64)

    def _cast_to_kind(self, val: _Val, kind: str, mask, what: str) -> np.ndarray:
        if kind == "integer":
            return self._cast_to_int(val, mask, what)
        if val.kind == "integer":
            return val.vec.astype(np.float64)
        return val.vec

    # -- expression evaluation ----------------------------------------------

    def eval_expr(self, expr: Expr, mask: np.ndarray) -> _Val:
        if isinstance(expr, Num):
            if expr.is_int:
                return _Val(np.full(self.R, int(expr.value), dtype=_I64), "integer")
            return _Val(np.full(self.R, expr.value, dtype=np.float64), "real")
        if isinstance(expr, Var):
            return self._eval_var(expr.name, mask)
        if isinstance(expr, ArrayRef):
            return self._eval_load(expr, mask)
        if isinstance(expr, BinOp):
            return self._eval_binop(expr, mask)
        if isinstance(expr, UnaryOp):
            return self._eval_unary(expr, mask)
        if isinstance(expr, Call):
            return self._eval_call(expr, mask)
        self._bail(f"cannot vectorize {type(expr).__name__}")

    def eval_flushed(self, expr: Expr, mask: np.ndarray) -> _Val:
        """An escape position: pending reads are reported here (with the
        compiled engine's bare-load peephole)."""
        if (
            self.value_based
            and isinstance(expr, ArrayRef)
            and expr.name in self.tested
            and self.redux_refs.get(expr.ref_id) is None
        ):
            return self._eval_load(expr, mask, force_mark=True)
        val = self.eval_expr(expr, mask)
        if val.atoms:
            self._flush_atoms(val.atoms, mask)
            val = _Val(val.vec, val.kind)
        return val

    def eval_index(self, expr: Expr, mask: np.ndarray) -> np.ndarray:
        """A subscript: flushed, integral, still 1-based."""
        val = self.eval_flushed(expr, mask)
        if val.kind == "integer":
            return val.vec
        act = val.vec[mask]
        if act.size:
            if not np.all(np.isfinite(act)):
                self._bail("non-finite array subscript")
            if np.any(act != np.trunc(act)):
                self._bail("non-integral array subscript")
            if float(np.abs(act).max()) >= float(_BIG):
                self._bail("array subscript exceeds the vector range")
        return np.trunc(np.where(mask, val.vec, 1.0)).astype(_I64)

    def _eval_var(self, name: str, mask: np.ndarray) -> _Val:
        self._charge("scalar_ops", mask)
        state = self._scalar_state(name)
        if name in self.assigned_in_body:
            if not state.assigned_all and np.any(mask & ~state.assigned):
                self._bail(
                    f"scalar {name!r} carried across iterations "
                    "(read before its in-iteration assignment)"
                )
        elif not state.initially_defined:
            self._bail(f"scalar {name!r} read while undefined")
        # Taints hand over unmasked: every consumer either re-masks at
        # assignment or intersects with its lane mask at flush time.
        return _Val(state.vec, state.kind, state.atoms)

    def _route(self, name: str, ref_id: int) -> str:
        if self.redux_refs.get(ref_id) is not None and name in self.partials:
            return "partial"
        if name in self.privates:
            return "private"
        return "shared"

    def _eval_load(self, ref: ArrayRef, mask, force_mark: bool = False) -> _Val:
        name = ref.name
        idx = self.eval_index(ref.index, mask)
        self._charge("mem_reads", mask)
        size = self.sizes.get(name)
        if size is None:
            self._bail(f"undeclared array {name!r}")
        kind = self.kinds[name]
        act = idx[mask]
        if act.size and (int(act.min()) < 1 or int(act.max()) > size):
            self._bail(f"subscript of {name!r} out of bounds")
        idx0 = idx - 1
        route = self._route(name, ref.ref_id)
        if route == "partial":
            self._bail("reduction-array load outside its own update")
        full = mask is self._full
        if route == "private":
            state = self._private_state(name)
            if full:
                own, at = state.lookup(self._rows_all * state.size + idx0)
                vec = state.base[idx0]
                if own.any():
                    vec = np.where(own, state.vals[at], vec)
                if vec.dtype != self._dtype_of(kind):
                    vec = vec.astype(self._dtype_of(kind))
                base_sel = np.flatnonzero(~own)
                if base_sel.size:
                    state.base_reads.append((base_sel, idx0[base_sel]))
            else:
                sel = self._sel_of(mask)
                vec = self._zeros(kind)
                if sel.size:
                    own, at = state.lookup(sel * state.size + idx0[sel])
                    vec[sel[own]] = state.vals[at[own]]
                    base_sel = sel[~own]
                    if base_sel.size:
                        vec[base_sel] = state.base[idx0[base_sel]]
                        state.base_reads.append((base_sel, idx0[base_sel]))
        elif full:
            vec = self.shared_env.arrays[name][idx0]
            if vec.dtype != self._dtype_of(kind):
                vec = vec.astype(self._dtype_of(kind))
        else:
            sel = self._sel_of(mask)
            vec = self._zeros(kind)
            if sel.size:
                vec[sel] = self.shared_env.arrays[name][idx0[sel]]
        atoms: tuple = ()
        if name in self.tested:
            if self.value_based and not force_mark:
                atoms = (_Atom(name, idx0, mask.copy()),)
            else:
                self._emit(name, idx0, mask, KIND_READ)
        return _Val(vec, kind, atoms)

    def _eval_binop(self, expr: BinOp, mask: np.ndarray) -> _Val:
        op = expr.op
        if op in ("and", "or"):
            self._charge("flops", mask)
            left = self.eval_flushed(expr.left, mask)
            if op == "and":
                need_right = mask & (left.vec != 0)
                right = self.eval_flushed(expr.right, need_right)
                result = np.where(need_right & (right.vec != 0), 1, 0)
            else:
                need_right = mask & (left.vec == 0)
                right = self.eval_flushed(expr.right, need_right)
                result = np.where(
                    mask & ~need_right, 1,
                    np.where(need_right & (right.vec != 0), 1, 0),
                )
            return _Val(result.astype(_I64), "integer")

        self._charge("flops", mask)
        left = self.eval_expr(expr.left, mask)
        right = self.eval_expr(expr.right, mask)
        atoms = _merge_atoms(left.atoms, right.atoms)
        vec = self._apply_binop(op, left, right, mask)
        kind = (
            "integer"
            if vec.dtype == _I64
            else "real"
        )
        if atoms and op not in ("and", "or"):
            return _Val(vec, kind, atoms)
        return _Val(vec, kind)

    def _apply_binop(self, op, left: _Val, right: _Val, mask) -> np.ndarray:
        a, b = left.vec, right.vec
        both_int = left.kind == "integer" and right.kind == "integer"
        if op in ("==", "/=", "<", "<=", ">", ">="):
            if left.kind != right.kind:
                ivec = a if left.kind == "integer" else b
                act = ivec[mask]
                if act.size and (
                    int(act.min()) < -_F_EXACT or int(act.max()) > _F_EXACT
                ):
                    self._bail(
                        "mixed integer/real comparison beyond exact "
                        "float64 range"
                    )
            cmp = {
                "==": np.equal, "/=": np.not_equal, "<": np.less,
                "<=": np.less_equal, ">": np.greater, ">=": np.greater_equal,
            }[op]
            return cmp(a, b).astype(_I64)
        if op in ("+", "-", "*"):
            if both_int:
                self._guard_int_range(a, mask, f"{op!r}")
                self._guard_int_range(b, mask, f"{op!r}")
                if op == "*":
                    aa, bb = a[mask], b[mask]
                    if aa.size:
                        amax = max(abs(int(aa.min())), abs(int(aa.max())))
                        bmax = max(abs(int(bb.min())), abs(int(bb.max())))
                        if amax * bmax >= _BIG:
                            self._bail(
                                "integer product exceeds the vector range"
                            )
                return {"+": np.add, "-": np.subtract, "*": np.multiply}[op](a, b)
            fa = a.astype(np.float64) if left.kind == "integer" else a
            fb = b.astype(np.float64) if right.kind == "integer" else b
            # Python floats overflow to inf/nan silently; so do these.
            with np.errstate(over="ignore", invalid="ignore"):
                return {"+": np.add, "-": np.subtract, "*": np.multiply}[op](fa, fb)
        if op == "/":
            if both_int:
                if np.any(b[mask] == 0):
                    self._bail("integer division by zero in the block")
                return self._int_div(a, b)
            fa = a.astype(np.float64) if left.kind == "integer" else a
            fb = b.astype(np.float64) if right.kind == "integer" else b
            if np.any(fb[mask] == 0.0):
                self._bail("division by zero in the block")
            with np.errstate(over="ignore", invalid="ignore"):
                return fa / np.where(fb == 0.0, 1.0, fb)
        self._bail(f"operator {op!r} not vectorizable")

    def _int_div(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Fortran integer division: truncation toward zero."""
        bs = np.where(b == 0, 1, b)
        q = np.abs(a) // np.abs(bs)
        return np.where((a >= 0) == (bs >= 0), q, -q)

    def _eval_unary(self, expr: UnaryOp, mask: np.ndarray) -> _Val:
        self._charge("flops", mask)
        val = self.eval_expr(expr.operand, mask)
        if expr.op == "not":
            return _Val((val.vec == 0).astype(_I64), "integer", val.atoms)
        if val.kind == "integer":
            self._guard_int_range(val.vec, mask, "negation")
        return _Val(-val.vec, val.kind, val.atoms)

    def _eval_call(self, expr: Call, mask: np.ndarray) -> _Val:
        self._charge("intrinsics", mask)
        args = [self.eval_expr(arg, mask) for arg in expr.args]
        atoms: tuple = ()
        for arg in args:
            atoms = _merge_atoms(atoms, arg.atoms)
        vec, kind = self._apply_intrinsic(expr.func, args, mask)
        return _Val(vec, kind, atoms)

    def _apply_intrinsic(self, func: str, args: list, mask):
        if func == "abs":
            (x,) = args
            if x.kind == "integer":
                self._guard_int_range(x.vec, mask, "abs()")
            return np.abs(x.vec), x.kind
        if func == "sqrt":
            (x,) = args
            v = x.vec.astype(np.float64) if x.kind == "integer" else x.vec
            if np.any(v[mask] < 0):
                self._bail("sqrt of a negative value in the block")
            return np.sqrt(np.where(v < 0, 0.0, v)), "real"
        if func in ("exp", "log", "sin", "cos"):
            return self._apply_libm(func, args[0], mask), "real"
        if func == "floor":
            (x,) = args
            if x.kind == "integer":
                return x.vec, "integer"
            act = x.vec[mask]
            if act.size:
                if not np.all(np.isfinite(act)):
                    self._bail("non-finite value in floor()")
                if float(np.abs(act).max()) >= float(_BIG):
                    self._bail("floor() magnitude exceeds the vector range")
            return (
                np.floor(np.where(mask, x.vec, 0.0)).astype(_I64),
                "integer",
            )
        if func == "int":
            (x,) = args
            return self._cast_to_int(x, mask, "int()"), "integer"
        if func == "real":
            (x,) = args
            if x.kind == "integer":
                return x.vec.astype(np.float64), "real"
            return x.vec, "real"
        if func == "sign":
            x, y = args
            if x.kind == "integer" and y.kind == "integer":
                self._guard_int_range(x.vec, mask, "sign()")
                return np.where(y.vec >= 0, np.abs(x.vec), -np.abs(x.vec)), "integer"
            fx = x.vec.astype(np.float64) if x.kind == "integer" else x.vec
            fy = y.vec.astype(np.float64) if y.kind == "integer" else y.vec
            return np.where(fy >= 0, np.abs(fx), -np.abs(fx)), "real"
        if func == "mod":
            x, y = args
            if np.any(y.vec[mask] == 0):
                self._bail("mod with zero divisor in the block")
            if x.kind == "integer" and y.kind == "integer":
                self._guard_int_range(x.vec, mask, "mod()")
                self._guard_int_range(y.vec, mask, "mod()")
                q = self._int_div(x.vec, y.vec)
                return x.vec - q * np.where(y.vec == 0, 1, y.vec), "integer"
            fx = x.vec.astype(np.float64) if x.kind == "integer" else x.vec
            fy = y.vec.astype(np.float64) if y.kind == "integer" else y.vec
            return np.fmod(fx, np.where(fy == 0.0, 1.0, fy)), "real"
        if func in ("min", "max"):
            # Python's variadic min/max: first-wins on ties, NaNs keep
            # the current accumulator — exactly the where() fold below.
            kinds = {arg.kind for arg in args}
            if len(kinds) > 1:
                self._bail(f"{func}() over mixed integer/real arguments")
            acc = args[0].vec
            for arg in args[1:]:
                if func == "min":
                    acc = np.where(arg.vec < acc, arg.vec, acc)
                else:
                    acc = np.where(arg.vec > acc, arg.vec, acc)
            return acc, args[0].kind
        self._bail(f"intrinsic {func!r} is not vectorizable")

    def _apply_libm(self, func: str, x: _Val, mask) -> np.ndarray:
        """``exp``/``log``/``sin``/``cos`` through the scalar engines' own
        ``math.*`` call, once per active lane — exact by construction.
        Masked-off lanes are never evaluated; a lane on which the scalar
        engines would raise bails instead."""
        sel = self._sel_of(mask)
        out = np.zeros(self.R, dtype=np.float64)
        if not sel.size:
            return out
        v = x.vec[sel]
        if func == "log" and np.any(v <= 0):
            self._bail("log of a non-positive value in the block")
        try:
            out[sel] = list(map(getattr(math, func), v.tolist()))
        except (OverflowError, ValueError) as exc:
            self._bail(f"{func}() raises on an active lane ({exc})")
        return out

    # -- statements ----------------------------------------------------------

    def exec_block(self, body: list[Stmt], mask: np.ndarray) -> None:
        for stmt in body:
            self.exec_stmt(stmt, mask)

    def exec_stmt(self, stmt: Stmt, mask: np.ndarray) -> None:
        if not mask.any():
            return
        if isinstance(stmt, Assign):
            self._exec_assign(stmt, mask)
        elif isinstance(stmt, If):
            self._charge("branches", mask)
            cond = self.eval_flushed(stmt.cond, mask)
            taken = mask & (cond.vec != 0)
            self.exec_block(stmt.then_body, taken)
            self.exec_block(stmt.else_body, mask & ~taken)
        elif isinstance(stmt, Do):
            self._exec_do(stmt, mask)
        else:
            self._bail(f"cannot vectorize {type(stmt).__name__}")

    def _set_scalar(
        self, name, val: _Val, mask, *, charge: bool, clear_taints: bool,
        log: bool = True, seq: int | None = None,
    ) -> None:
        """The scalar-assignment kernel shared by assigns and do-vars."""
        state = self._scalar_state(name)
        if charge:
            self._charge("scalar_ops", mask)
        cast = self._cast_to_kind(val, state.kind, mask, f"scalar {name!r}")
        if mask is self._full:
            # all-lane assignment: the surviving taints are exactly the
            # value's (created under this same mask), and every lane is
            # assigned afterwards.
            state.vec = cast.copy()
            state.assigned = self._full
            state.assigned_all = True
            if clear_taints:
                state.atoms = val.atoms
        else:
            state.vec = np.where(mask, cast, state.vec)
            if not state.assigned_all:
                state.assigned = state.assigned | mask
                state.assigned_all = bool(state.assigned.all())
            if clear_taints:
                state.atoms = _blend_atoms(state.atoms, val.atoms, mask)
        if log:
            sel = self._sel_of(mask)
            if sel.size:
                self.scalar_events.append(
                    (name,
                     self._next_seq() if seq is None else seq,
                     sel, state.vec[sel].copy())
                )

    def _exec_assign(self, stmt: Assign, mask: np.ndarray) -> None:
        target = stmt.target
        if isinstance(target, Var):
            if target.name in self.scalar_reductions:
                self._exec_scalar_reduction(stmt, mask)
                return
            expr = stmt.expr
            if isinstance(expr, BinOp) and (
                self._is_redux_load(expr.left) or self._is_redux_load(expr.right)
            ):
                self._exec_redux_temp(stmt, mask)
                return
            val = self.eval_expr(stmt.expr, mask)
            self._set_scalar(
                target.name, val, mask, charge=True, clear_taints=True
            )
            return
        name = target.name
        if self.redux_refs.get(target.ref_id) is not None:
            self._exec_array_reduction(stmt, target, mask)
            return
        idx = self.eval_index(target.index, mask)
        val = self.eval_flushed(stmt.expr, mask)
        self._charge("mem_writes", mask)
        size = self.sizes.get(name)
        act = idx[mask]
        if act.size and (int(act.min()) < 1 or int(act.max()) > size):
            self._bail(f"subscript of {name!r} out of bounds")
        idx0 = idx - 1
        if self._route(name, target.ref_id) != "private":
            self._bail(
                f"store to untransformed shared array {name!r} "
                "(cross-iteration visibility)"
            )
        state = self._private_state(name)
        kind = self.kinds[name]
        cast = self._cast_to_kind(val, kind, mask, f"store to {name!r}")
        sel = self._sel_of(mask)
        if sel.size:
            idx_sel = idx0[sel]
            vals = cast[sel]
            state.store(sel * state.size + idx_sel, vals)
            state.writes.append((sel, idx_sel, vals, self._next_seq()))
        if name in self.tested:
            self._emit(name, idx0, mask, KIND_WRITE)

    def _is_redux_load(self, node) -> bool:
        return (
            isinstance(node, ArrayRef)
            and self.redux_refs.get(node.ref_id) is not None
        )

    def _load_redux(self, ref: ArrayRef, mask) -> np.ndarray:
        """A reduction-array load in its own update (compiled
        ``load_redux``): the subscript evaluation, a charged memory read
        and a REDUX mark.  The running value it would return is never
        materialized — the commit-time fold reproduces it.  Returns the
        0-based element vector."""
        name = ref.name
        idx = self.eval_index(ref.index, mask)
        self._charge("mem_reads", mask)
        act = idx[mask]
        if act.size and (int(act.min()) < 1 or int(act.max()) > self.sizes[name]):
            self._bail(f"subscript of {name!r} out of bounds")
        if name in self.tested:
            opcode = OP_CODES[self.redux_refs[ref.ref_id]]
            self._emit(name, idx - 1, mask, KIND_REDUX, opcode)
        return idx - 1

    def _eval_update(self, expr: BinOp, mask):
        """Evaluate a direct update ``A(e) op rest`` / ``rest op A(e)``
        in the compiled engine's order — the BinOp's flop, then its
        operands left to right — and return ``(self load, self element
        vector, contribution, taints)``; the contribution is ``rest`` as
        float64, negated for ``-``."""
        self._charge("flops", mask)
        atoms: tuple = ()
        load = idx0 = rest_val = None
        for operand in (expr.left, expr.right):
            if load is None and self._is_redux_load(operand):
                load = operand
                idx0 = self._load_redux(operand, mask)
            else:
                rest_val = self.eval_expr(operand, mask)
                atoms = _merge_atoms(atoms, rest_val.atoms)
        contrib = rest_val.vec
        if contrib.dtype == _I64:
            contrib = contrib.astype(np.float64)
        if expr.op == "-":
            contrib = -contrib
        return load, idx0, contrib, atoms

    def _log_contribution(self, name, idx0, contrib, mask, opcode) -> None:
        """The store half of an update: a charged write, the contribution
        logged for the partial fold at this sequence point, and the
        store's REDUX mark."""
        self._charge("mem_writes", mask)
        sel = self._sel_of(mask)
        if sel.size:
            self.redux_logs.setdefault(name, []).append(
                (sel, idx0[sel], contrib[sel], self._next_seq())
            )
        if name in self.tested:
            self._emit(name, idx0, mask, KIND_REDUX, opcode)

    def _exec_array_reduction(self, stmt: Assign, target: ArrayRef, mask) -> None:
        """A reduction update (validated by the classifier): either the
        direct ``A(e) = A(e) op rest`` or the store ``A(e) = t`` of a
        reduction temporary.  Contributions are logged for an exec-order
        fold into the per-processor partials, with the compiled engine's
        exact evaluation order, costs and mark stream."""
        name = target.name
        idx = self.eval_index(target.index, mask)
        act = idx[mask]
        if act.size and (int(act.min()) < 1 or int(act.max()) > self.sizes[name]):
            self._bail(f"subscript of {name!r} out of bounds")
        idx0 = idx - 1
        if isinstance(stmt.expr, Var):
            # compile_flushed on the temporary: the scalar read (and its
            # carried-value guard), pending reads reported here.
            self.eval_flushed(stmt.expr, mask)
            temp = self.redux_temps.get(stmt.expr.name)
            sel = self._sel_of(mask)
            if (
                temp is None
                or temp.array != name
                or np.any(temp.idx0[sel] != idx0[sel])
            ):
                self._bail(
                    f"reduction temporary {stmt.expr.name!r} carries "
                    f"another element of {name!r}"
                )
            contrib = temp.contrib
        else:
            _load, _self_idx0, contrib, atoms = self._eval_update(stmt.expr, mask)
            # compile_flushed on the RHS: pending reads report here.
            self._flush_atoms(atoms, mask)
        self._log_contribution(
            name, idx0, contrib, mask, OP_CODES[self.redux_refs[target.ref_id]]
        )

    def _exec_redux_temp(self, stmt: Assign, mask) -> None:
        """``t = A(e) op rest`` for a classifier-accepted reduction
        temporary: the load half of the update.  The lanes record the
        element, the contribution and the assignment's sequence point;
        ``t`` itself is charged, marked assigned and keeps the
        contribution's taints, like any scalar assignment."""
        name = stmt.target.name
        load, idx0, contrib, atoms = self._eval_update(stmt.expr, mask)
        temp = self.redux_temps.get(name)
        if temp is None:
            temp = _ReduxTemp(load.name, self.redux_refs[load.ref_id], self.R)
            self.redux_temps[name] = temp
        seq = self._next_seq()
        if mask is self._full:
            temp.idx0 = idx0
            temp.contrib = contrib
            temp.seq = np.full(self.R, seq, dtype=_I64)
        else:
            temp.idx0 = np.where(mask, idx0, temp.idx0)
            temp.contrib = np.where(mask, contrib, temp.contrib)
            temp.seq = np.where(mask, seq, temp.seq)
        self._set_scalar(
            name, _Val(temp.contrib, "real", atoms), mask,
            charge=True, clear_taints=True, log=False,
        )

    def _exec_scalar_reduction(self, stmt: Assign, mask: np.ndarray) -> None:
        """A direct scalar reduction ``s = s op rest`` or ``s = max(s,
        rest)`` / ``min`` (validated): the contribution is logged for a
        per-processor exec-order fold; the running value is never
        materialized per lane."""
        name = stmt.target.name
        expr = stmt.expr
        if isinstance(expr, Call):
            self._charge("intrinsics", mask)  # the update's min/max
            operands = expr.args
            op = expr.func
        else:
            self._charge("flops", mask)  # the update's BinOp
            operands = (expr.left, expr.right)
            op = expr.op
        state = self._scalar_state(name)
        atoms: tuple = ()
        rest_val = None
        form = None
        for side, operand in zip("lr", operands):
            if isinstance(operand, Var) and operand.name == name and form is None:
                # the self read: charged, taints propagate, value folded.
                self._charge("scalar_ops", mask)
                atoms = _merge_atoms(atoms, state.atoms)
                form = (_SCALAR_FOLDS[op], side == "l")
            else:
                rest_val = self.eval_expr(operand, mask)
                atoms = _merge_atoms(atoms, rest_val.atoms)
        self._charge("scalar_ops", mask)  # the assignment itself
        state.atoms = _blend_atoms(state.atoms, atoms, mask)
        state.assigned = state.assigned | mask
        sel = self._sel_of(mask)
        if sel.size:
            self.scalar_redux_logs.setdefault(name, []).append(
                (sel, rest_val.vec[sel].copy(), self._next_seq(), form)
            )

    def _exec_do(self, stmt: Do, mask: np.ndarray) -> None:
        start = self._cast_to_int(
            self.eval_flushed(stmt.start, mask), mask, "do bounds"
        )
        stop = self._cast_to_int(
            self.eval_flushed(stmt.stop, mask), mask, "do bounds"
        )
        if stmt.step is not None:
            step = self._cast_to_int(
                self.eval_flushed(stmt.step, mask), mask, "do bounds"
            )
        else:
            step = np.ones(self.R, dtype=_I64)
        if np.any(step[mask] == 0):
            self._bail("nested do loop with zero step")
        kind = self.kinds.get(stmt.var)
        if kind is None:
            self._bail(f"undeclared scalar {stmt.var!r}")
        self._guard_int_range(start, mask, "do bounds")
        self._guard_int_range(stop, mask, "do bounds")
        self._guard_int_range(step, mask, "do bounds")
        step_safe = np.where(step == 0, 1, step)
        trip = np.maximum(0, (stop - start) // step_safe + 1)
        trip = np.where(mask, trip, 0)
        max_trip = int(trip.max()) if trip.size else 0
        if max_trip > _NESTED_TRIP_CAP:
            self._bail("nested do loop exceeds the lockstep step budget")
        for t in range(max_trip):
            active = mask & (t < trip)
            value = start + t * step_safe
            val = _Val(value, "integer")
            # Like the scalar engines, setting the do variable does NOT
            # clear a pending taint it may hold.
            self._set_scalar(
                stmt.var, val, active, charge=True, clear_taints=False
            )
            self.exec_block(stmt.body, active)
        # Fortran one-past exit value (uncharged).
        final = _Val(start + trip * step_safe, "integer")
        self._set_scalar(stmt.var, final, mask, charge=False, clear_taints=False)

    # -- the block run -------------------------------------------------------

    def run(self) -> list[tuple[int, IterationCost]]:
        R = self.R
        if R == 0:
            return []
        var_kind = self.kinds.get(self.loop.var)
        if var_kind is None:
            self._bail(f"undeclared loop variable {self.loop.var!r}")
        vals = np.asarray(self.values, dtype=_I64)[self.positions]
        # run_iteration's uncharged loop-variable set.
        self._set_scalar(
            self.loop.var, _Val(vals, "integer"),
            self._full, charge=False, clear_taints=False, seq=-1,
        )

        self.exec_block(self.loop.body, self._full)

        # live-out flush: pending reads held by live-out scalars report
        # at iteration end, before the batched marks apply.
        if self.tested:
            for name in self.live_out_scalars:
                state = self.scalar_states.get(name)
                if state is not None and state.atoms:
                    self._flush_atoms(state.atoms, self._full)
                    state.atoms = ()

        staged = self._stage_shadows()
        self._check_private_dependences()

        # -------- point of no return: commit everything -----------------
        if self.marker is not None:
            for shadow, batch in staged:
                shadow.commit_batch(batch)
        self._commit_privates()
        self._commit_partials()
        self._commit_redux_temps()
        self._commit_scalar_reductions()
        self._commit_scalar_finals()
        if not self.need_costs:
            return []
        return self._iteration_costs()

    # -- staging checks ------------------------------------------------------

    def _stage_shadows(self):
        if self.marker is None or not self.emissions:
            return []
        span = self.seq + 2
        if (int(self.row_rank.max()) + 1) * span >= _BIG:
            self._bail("mark-rank key exceeds the vector range")
        per_array: dict[str, list] = {}
        for name, sel, idx0, kind, opcode, seq in self.emissions:
            per_array.setdefault(name, []).append((sel, idx0, kind, opcode, seq))
        staged = []
        would_fail = False
        for name, events in per_array.items():
            lengths = np.asarray(
                [sel.size for sel, _i, _k, _o, _s in events], dtype=_I64
            )
            lanes = np.concatenate([sel for sel, _i, _k, _o, _s in events])
            kinds = np.repeat(
                np.asarray([k for _s, _i, k, _o, _q in events], dtype=_I64),
                lengths,
            )
            idx = np.concatenate([i for _s, i, _k, _o, _q in events])
            ops = np.repeat(
                np.asarray([o for _s, _i, _k, o, _q in events], dtype=_I64),
                lengths,
            )
            grans = self.granule[lanes]
            rank = self.row_rank[lanes] * span + np.repeat(
                np.asarray([q for _s, _i, _k, _o, q in events], dtype=_I64),
                lengths,
            )
            shadow = self.marker.shadows[name]
            batch = shadow.stage_stream_vec(kinds, idx, ops, grans, rank)
            would_fail = would_fail or batch.would_fail
            staged.append((shadow, batch))
        if would_fail:
            self._bail("eager speculation failure inside the block")
        return staged

    def _check_private_dependences(self) -> None:
        """A private element read from the pre-block base must not have
        been written by an *earlier* iteration of the same virtual
        processor — that value would be carried, which the lanes cannot
        see.  (Same-iteration reads were forwarded from the lane's own
        stores and never reach the base.)"""
        for name, state in self.private_states.items():
            if not state.base_reads or not state.writes:
                continue
            first_k = np.full(
                (self.num_procs, state.size), np.iinfo(_I64).max, dtype=_I64
            )
            for sel, idx0, _vals, _seq in state.writes:
                np.minimum.at(first_k, (self.proc_of[sel], idx0), self.k_of[sel])
            for sel, idx0 in state.base_reads:
                if np.any(first_k[self.proc_of[sel], idx0] < self.k_of[sel]):
                    self._bail(
                        f"cross-iteration private dependence on {name!r}"
                    )

    # -- commits -------------------------------------------------------------

    def _commit_privates(self) -> None:
        for name, state in self.private_states.items():
            if not state.writes:
                continue
            copies = self.privates[name]
            rows = np.concatenate([sel for sel, _i, _v, _s in state.writes])
            idx0 = np.concatenate([i for _s, i, _v, _q in state.writes])
            vals = np.concatenate([v for _s, _i, v, _q in state.writes])
            seqs = np.concatenate(
                [np.full(sel.size, seq, dtype=_I64)
                 for sel, _i, _v, seq in state.writes]
            )
            procs = self.proc_of[rows]
            ks = self.k_of[rows]
            order = np.lexsort((seqs, ks, idx0, procs))
            group_last = np.ones(order.size, dtype=bool)
            group_last[:-1] = (procs[order][1:] != procs[order][:-1]) | (
                idx0[order][1:] != idx0[order][:-1]
            )
            win = order[group_last]
            copies.data[procs[win], idx0[win]] = vals[win]
            copies.wstamp[procs[win], idx0[win]] = self.positions[rows[win]]
            if copies._rows is not None:  # keep a materialized mirror honest
                for w in win:
                    copies._rows[int(procs[w])][int(idx0[w])] = (
                        copies.data[int(procs[w]), int(idx0[w])].item()
                    )

    def _commit_partials(self) -> None:
        for name, events in self.redux_logs.items():
            partial = self.partials[name]
            size = self.sizes[name]
            rows = np.concatenate([sel for sel, _i, _c, _s in events])
            idx0 = np.concatenate([i for _s, i, _c, _q in events])
            contribs = np.concatenate([c for _s, _i, c, _q in events])
            seqs = np.concatenate(
                [np.full(sel.size, seq, dtype=_I64)
                 for sel, _i, _c, seq in events]
            )
            op = self._partial_op(name)
            order = np.lexsort((seqs, self.row_rank[rows]))
            procs = self.proc_of[rows][order]
            elems = idx0[order]
            vals = contribs[order]
            acc = np.full(
                (self.num_procs, size), REDUCTION_IDENTITY[op], dtype=np.float64
            )
            if op == "+":
                np.add.at(acc, (procs, elems), vals)
            else:
                np.multiply.at(acc, (procs, elems), vals)
            touched = np.zeros((self.num_procs, size), dtype=bool)
            touched[procs, elems] = True
            maps = partial.proc_maps()
            t_procs, t_elems = np.nonzero(touched)
            for proc, elem, value in zip(
                t_procs.tolist(), t_elems.tolist(),
                acc[t_procs, t_elems].tolist(),
            ):
                maps[proc][elem] = (op, value)

    def _commit_redux_temps(self) -> None:
        """Each processor's final value of a reduction temporary.

        The compiled engine leaves ``t`` holding the running value of its
        last assignment: the partial element's value at that load, folded
        with the lane's contribution.  That prefix is re-folded here, in
        exec order, from the logged contributions that precede the
        assignment — a few per processor.
        """
        for name, temp in self.redux_temps.items():
            assigned = np.flatnonzero(temp.seq >= 0)
            if not assigned.size:
                continue
            fold = operator.add if temp.op == "+" else operator.mul
            # The last assigning lane of each processor, in exec order.
            procs = self.proc_of[assigned]
            order = np.lexsort((self.row_rank[assigned], procs))
            is_last = np.ones(order.size, dtype=bool)
            is_last[:-1] = procs[order][1:] != procs[order][:-1]
            lanes = assigned[order][is_last]
            totals = dict.fromkeys(
                self.proc_of[lanes].tolist(), REDUCTION_IDENTITY[temp.op]
            )
            events = self.redux_logs.get(temp.array)
            if events:
                lane_of = np.zeros(self.num_procs, dtype=_I64)
                lane_of[self.proc_of[lanes]] = lanes
                has_lane = np.zeros(self.num_procs, dtype=bool)
                has_lane[self.proc_of[lanes]] = True
                rows = np.concatenate([sel for sel, _i, _c, _s in events])
                elems = np.concatenate([i for _s, i, _c, _q in events])
                contribs = np.concatenate([c for _s, _i, c, _q in events])
                seqs = np.concatenate(
                    [np.full(sel.size, seq, dtype=_I64)
                     for sel, _i, _c, seq in events]
                )
                procs = self.proc_of[rows]
                lane = lane_of[procs]
                ranks = self.row_rank[rows]
                before = (
                    has_lane[procs]
                    & (elems == temp.idx0[lane])
                    & (
                        (ranks < self.row_rank[lane])
                        | ((rows == lane) & (seqs < temp.seq[lane]))
                    )
                )
                order = np.lexsort((seqs[before], ranks[before]))
                for p, c in zip(
                    procs[before][order].tolist(),
                    contribs[before][order].tolist(),
                ):
                    totals[p] = fold(totals[p], c)
            for lane, contrib in zip(lanes.tolist(), temp.contrib[lanes].tolist()):
                p = int(self.proc_of[lane])
                self.proc_envs[p].scalars[name] = float(fold(totals[p], contrib))

    def _partial_op(self, name: str) -> str:
        # Every redux ref of one array shares one op family (classifier-
        # guaranteed); recover it from the body's update statements.
        ops = set()
        for stmt in walk_statements(self.loop.body):
            if isinstance(stmt, Assign) and isinstance(stmt.target, ArrayRef):
                if (
                    stmt.target.name == name
                    and self.redux_refs.get(stmt.target.ref_id) is not None
                ):
                    ops.add(self.redux_refs[stmt.target.ref_id])
        if len(ops) != 1:
            self._bail(f"ambiguous reduction operator for {name!r}")
        return ops.pop()

    def _commit_scalar_reductions(self) -> None:
        for name, events in self.scalar_redux_logs.items():
            kind = self.kinds[name]
            as_kind = int if kind == "integer" else float
            rows = np.concatenate([sel for sel, _c, _s, _f in events])
            seqs = np.concatenate(
                [np.full(sel.size, seq, dtype=_I64)
                 for sel, _c, seq, _f in events]
            )
            contribs = np.concatenate([c for _s, c, _q, _f in events])
            event_of = np.concatenate(
                [np.full(sel.size, i, dtype=_I64)
                 for i, (sel, _c, _q, _f) in enumerate(events)]
            )
            forms = [form for _s, _c, _q, form in events]
            order = np.lexsort((seqs, self.row_rank[rows]))
            totals = {
                p: self.proc_envs[p].scalars[name] for p in self.procs_present
            }
            # tolist() yields the Python ints/floats the scalar engines
            # hold; each step applies their own operand order, so
            # min/max first-wins ties and NaN handling follow it.
            for p, c, event in zip(
                self.proc_of[rows[order]].tolist(),
                contribs[order].tolist(),
                event_of[order].tolist(),
            ):
                fold, self_first = forms[event]
                total = totals[p]
                total = fold(total, c) if self_first else fold(c, total)
                totals[p] = as_kind(total)
            for p, total in totals.items():
                self.proc_envs[p].scalars[name] = total

    def _commit_scalar_finals(self) -> None:
        per_name: dict[str, list] = {}
        for name, seq, sel, vals in self.scalar_events:
            if name in self.scalar_reductions:
                continue
            per_name.setdefault(name, []).append((seq, sel, vals))
        for name, events in per_name.items():
            kind = self.kinds[name]
            as_kind = int if kind == "integer" else float
            rows = np.concatenate([sel for _s, sel, _v in events])
            seqs = np.concatenate(
                [np.full(sel.size, seq, dtype=_I64) for seq, sel, _v in events]
            )
            vals = np.concatenate([v for _s, _sel, v in events])
            procs = self.proc_of[rows]
            order = np.lexsort((seqs, self.row_rank[rows], procs))
            group_last = np.ones(order.size, dtype=bool)
            group_last[:-1] = procs[order][1:] != procs[order][:-1]
            for at in order[group_last]:
                self.proc_envs[int(procs[at])].scalars[name] = as_kind(vals[at])

    def _iteration_costs(self) -> list[tuple[int, IterationCost]]:
        order = np.argsort(self.row_rank, kind="stable")
        positions = self.positions[order].tolist()
        columns = [self.cost[cat][order].tolist() for cat in CATEGORIES]
        # Lanes share a handful of distinct count rows (one per control
        # path); the frozen records are built once per row and shared.
        shared: dict[tuple, IterationCost] = {}
        pairs = []
        for pos, row in zip(positions, zip(*columns)):
            cost = shared.get(row)
            if cost is None:
                cost = shared[row] = IterationCost(*row)
            pairs.append((pos, cost))
        return pairs
