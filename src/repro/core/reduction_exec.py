"""Parallel reduction execution: per-processor partials and their merge.

During the speculative doall, every access made by a validated reduction
statement is routed to the executing processor's *partial accumulator*
for that element, initialized to the operator's identity.  A chain such
as ``t = a(j); t2 = t + c; a(j) = t2`` therefore accumulates ``c`` into
the partial, whatever private temporaries the value flows through.

After the test passes, partials are merged into the shared array:
``a(j) = a(j) ⊕ partial_1(j) ⊕ ... ⊕ partial_p(j)`` — associative and
commutative, so any merge order is valid; a real machine does it in
``O(touched/p + log p)`` by recursive doubling [19, 21], which is the
cost the machine model charges.
"""

from __future__ import annotations

import math

import numpy as np

REDUCTION_IDENTITY: dict[str, float] = {
    "+": 0.0,
    "*": 1.0,
    "min": math.inf,
    "max": -math.inf,
}

COMBINE = {
    "+": lambda a, b: a + b,
    "*": lambda a, b: a * b,
    "min": min,
    "max": max,
}


class ReductionPartials:
    """Per-processor partial accumulators for one reduction array.

    Sparse (dict-based) per processor: reduction loops typically touch a
    subset of elements, and operators may differ per element (the test
    validates per-element operator consistency; conflicting runs are
    discarded anyway).
    """

    def __init__(self, name: str, num_procs: int):
        if num_procs < 1:
            raise ValueError("num_procs must be >= 1")
        self.name = name
        self.num_procs = num_procs
        #: per-processor {element -> (op, partial value)}
        self._partials: list[dict[int, tuple[str, float]]] = [
            {} for _ in range(num_procs)
        ]

    def load(self, proc: int, index: int, op: str) -> float:
        """Current partial for (proc, element); identity if untouched."""
        entry = self._partials[proc].get(index)
        if entry is None:
            return REDUCTION_IDENTITY[op]
        return entry[1]

    def proc_maps(self) -> list[dict[int, tuple[str, float]]]:
        """The per-processor partial maps themselves.

        Fast-path surface for the compiled speculative engine; entries
        must keep the ``(op, value)`` shape :meth:`store` writes.
        """
        return self._partials

    def store(self, proc: int, index: int, op: str, value: float) -> None:
        self._partials[proc][index] = (op, value)

    def touched_elements(self) -> set[int]:
        touched: set[int] = set()
        for partial in self._partials:
            touched |= set(partial)
        return touched

    def touched_mask(self, size: int) -> np.ndarray:
        mask = np.zeros(size, dtype=bool)
        for index in self.touched_elements():
            mask[index] = True
        return mask

    def merge_into(self, shared: np.ndarray, valid_mask: np.ndarray | None = None) -> int:
        """Fold all partials into ``shared``; returns elements merged.

        ``valid_mask`` restricts the merge to elements the test validated
        as reductions (others are handled by rollback or copy-out).
        Operator conflicts across processors only occur in runs the test
        already rejected, so the first-seen operator per element is used.
        """
        merged: dict[int, tuple[str, float]] = {}
        valid = None if valid_mask is None else valid_mask.tolist()
        for partial in self._partials:
            for index, (op, value) in partial.items():
                if valid is not None and not valid[index]:
                    continue
                if index in merged:
                    prev_op, prev = merged[index]
                    merged[index] = (prev_op, COMBINE[prev_op](prev, value))
                else:
                    merged[index] = (op, value)
        for index, (op, value) in merged.items():
            shared[index] = COMBINE[op](shared[index].item(), value)
        return len(merged)
