"""Ordered execution of independent simulation cells.

Every cell the cluster sweep runs — one (server plan, load level)
steady-state colocation — is a pure function of its explicit arguments:
the RNG is constructed inside the cell from the seed carried by its
:class:`~repro.sim.colocation.SimConfig`, never inherited from ambient
state.  :func:`map_ordered` is the loop that runs such cells on the
per-object oracle: results come back in task order, and an optional
``on_result`` hook sees each one as it lands (the checkpoint hook).

Failures carry context: a task that raises is re-raised as
:class:`~repro.errors.ExecutionError` naming the failing task's index,
arguments and root cause, so a mid-sweep death points at the exact
(plan, level) cell instead of an anonymous traceback.  The batched core
(:mod:`repro.engine.batched`) raises through the same wrapper.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple, TypeVar

from repro.errors import ExecutionError

T = TypeVar("T")

#: Called as results land: ``on_result(task_index, result)``, in task
#: order, so a checkpointing caller always persists a consistent prefix.
ResultHook = Optional[Callable[[int, T], None]]

_ARG_REPR_LIMIT = 80


def _summarize_task(task: Tuple) -> str:
    """A bounded, human-oriented rendering of one task's arguments."""
    parts = []
    for arg in task:
        text = repr(arg)
        if len(text) > _ARG_REPR_LIMIT:
            text = text[: _ARG_REPR_LIMIT - 1] + "…"
        parts.append(text)
    return "(" + ", ".join(parts) + ")"


def _root_cause(exc: BaseException) -> Optional[Tuple[str, str]]:
    """Walk ``__cause__``/``__context__`` to the originating exception.

    Returns ``(type_name, message)`` for the deepest chained exception,
    or ``None`` when ``exc`` is its own root; cycles cannot loop the
    walk.
    """
    seen = {id(exc)}
    root: BaseException = exc
    while True:
        nxt = root.__cause__ if root.__cause__ is not None else root.__context__
        if nxt is None or id(nxt) in seen:
            break
        seen.add(id(nxt))
        root = nxt
    if root is exc:
        return None
    return type(root).__name__, str(root)


def _task_failure(
    index: int, total: int, fn: Callable[..., T], task: Tuple, exc: Exception
) -> ExecutionError:
    """Wrap a deterministic task exception with its index and arguments.

    The message also names the *root cause* (the deepest chained
    exception) when it differs from ``exc``, so a cause chain set with
    ``raise ... from`` deep inside a cell shows in the one-line error.
    """
    message = (
        f"task {index} of {total} ({getattr(fn, '__name__', fn)!s}) raised "
        f"{type(exc).__name__}: {exc}; args={_summarize_task(task)}"
    )
    root = _root_cause(exc)
    if root is not None:
        name, text = root
        if len(text) > 2 * _ARG_REPR_LIMIT:
            text = text[: 2 * _ARG_REPR_LIMIT - 1] + "…"
        message += f" (root cause: {name}: {text})"
    return ExecutionError(message)


def map_ordered(
    fn: Callable[..., T],
    tasks: Sequence[Tuple],
    on_result: ResultHook[T] = None,
) -> List[T]:
    """Map ``fn`` over argument tuples in order: ``[fn(*t) for t in tasks]``.

    ``on_result(index, result)`` fires once per task as its result
    lands.  A task that raises is re-raised as
    :class:`~repro.errors.ExecutionError` whose message names the
    failing task's index and arguments (the original exception is
    chained as ``__cause__``).
    """
    results: List[T] = []
    total = len(tasks)
    for index, task in enumerate(tasks):
        try:
            result = fn(*task)
        except Exception as exc:
            raise _task_failure(index, total, fn, task, exc) from exc
        results.append(result)
        if on_result is not None:
            on_result(index, result)
    return results
