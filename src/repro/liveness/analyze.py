"""Starvation analysis over the essential-state graph.

The safety verifier proves that no *reachable* state is erroneous; this
pass proves that no *pending request* can be refused forever.  It is a
pure graph pass over the edge relation
(:class:`~repro.core.relation.EdgeRelation`) that the backend attached
to a completed :class:`~repro.core.essential.ExpansionResult`: the
interpreter's relation re-derives reactions through the reaction
semantics, the kernel's reads them from its successor memo, and this
module only walks whichever it is given.

The model is a product automaton.  A node pairs an essential state
``S`` with the FSM symbol ``q`` of one distinguished cache -- the
*blocked* cache, which issued an operation ``o`` that stalled and keeps
retrying it.  Edges are the global transitions other initiators can
take (closed over the essential set through the ``contains`` covering,
:class:`~repro.core.essential.HomeIndex`); along an edge the
blocked cache evolves as an observer, ``q -> outcome.observer_for(q)``.
At each node the protocol's reaction table classifies the pending
request:

* **stalling** -- some consistent scenario refuses ``o``;
* **serving** -- some consistent scenario completes ``o``;
* **moot** -- ``o`` is inapplicable from ``q`` or no consistent
  scenario can pose it (the request as issued no longer exists).

A liveness violation is a reachable stalling node from which *no*
serving or moot node is reachable: whatever the other caches do, every
retry stalls, forever.  Because the product graph is finite, every
violation yields a lasso -- a deterministic walk (always the
lexicographically smallest edge) either revisits a node, closing a
**stall cycle**, or reaches a node with no outgoing transition at all,
a **deadlock** whose loop is the retry itself.

Everything is iterated in sorted order (operations in specification
order, states by canonical rendering, symbols alphabetically, edges by
label), so the report is a pure function of the expansion's *graph
content* -- the backends and worklist schedules cannot leak in.
"""

from __future__ import annotations

from collections import deque

from ..core.composite import CompositeState
from ..core.errors import ErrorKind, Violation
from ..core.essential import ExpansionResult
from ..core.relation import EdgeRelation
from ..core.symbols import Op
from ..obs import active as _active_collector
from .model import LassoStep, LassoWitness, LivenessReport, retry_label

__all__ = ["analyze_liveness"]


_Node = tuple[CompositeState, str]


def _resolvable(
    relation: EdgeRelation, start: _Node, op: Op
) -> tuple[bool, set[_Node]]:
    """Can the pending request reach a serving (or moot) node?"""
    seen: set[_Node] = {start}
    queue: deque[_Node] = deque([start])
    while queue:
        state, symbol = queue.popleft()
        can_stall, can_serve = relation.request(state, symbol, op)
        if can_serve or not can_stall:
            # Serving, or moot (neither stall nor serve): resolved.
            return True, seen
        for edge in relation.edges(state):
            node = (edge.target, edge.observer_next(symbol))
            if node not in seen:
                seen.add(node)
                queue.append(node)
    return False, seen


def _extract_lasso(
    relation: EdgeRelation, start: _Node, op: Op
) -> tuple[ErrorKind, list[tuple[_Node, str]], list[tuple[_Node, str]]]:
    """Deterministic walk from *start* until a cycle or a dead node.

    Returns ``(kind, prefix, loop)`` where prefix/loop are
    ``(node, edge-label)`` pairs; the loop's last edge returns to its
    head (for a deadlock, the loop is the retry self-edge).
    """
    path: list[_Node] = [start]
    labels: list[str] = []
    index: dict[_Node, int] = {start: 0}
    while True:
        state, symbol = path[-1]
        edges = relation.edges(state)
        if not edges:
            steps = list(zip(path[:-1], labels))
            loop = [(path[-1], retry_label(op, symbol))]
            return ErrorKind.DEADLOCK, steps, loop
        chosen = min(
            edges,
            key=lambda e: (e.label, e.target.pretty(), e.observer_next(symbol)),
        )
        nxt = (chosen.target, chosen.observer_next(symbol))
        labels.append(chosen.label)
        if nxt in index:
            head = index[nxt]
            steps = list(zip(path, labels))
            return ErrorKind.STALL_CYCLE, steps[:head], steps[head:]
        index[nxt] = len(path)
        path.append(nxt)


def _global_stem(
    result: ExpansionResult, relation: EdgeRelation, target: CompositeState
) -> list[tuple[CompositeState, str]]:
    """Shortest path of global transitions from the initial cover."""
    start = relation.start
    if start == target:
        return []
    adjacency: dict[CompositeState, list[tuple[str, CompositeState]]] = {}
    for t in result.transitions:
        adjacency.setdefault(t.source, []).append((str(t.label), t.target))
    for out in adjacency.values():
        out.sort(key=lambda edge: (edge[0], edge[1].pretty()))
    parent: dict[CompositeState, tuple[CompositeState, str]] = {}
    seen = {start}
    queue = deque([start])
    while queue:
        state = queue.popleft()
        for label, succ in adjacency.get(state, ()):
            if succ in seen:
                continue
            seen.add(succ)
            parent[succ] = (state, label)
            if succ == target:
                queue.clear()
                break
            queue.append(succ)
    if target not in parent:
        return []  # disconnected cover (duplicates-mode oddity): no stem
    steps: list[tuple[CompositeState, str]] = []
    cursor = target
    while cursor != start:
        pred, label = parent[cursor]
        steps.append((pred, label))
        cursor = pred
    steps.reverse()
    return steps


def analyze_liveness(result: ExpansionResult) -> LivenessReport:
    """Check every pending request of a completed expansion for progress.

    Returns an unchecked report (``checked=False``) for partial results
    and for expansions stopped at the first safety error: the product
    graph is only sound over the complete essential set.
    """
    if result.partial:
        return LivenessReport(
            checked=False,
            reason="partial expansion: liveness needs the full fixpoint",
        )
    if result.violations and not result.transitions:
        return LivenessReport(
            checked=False,
            reason="expansion stopped at the first error (stop_on_error)",
        )

    relation = result.relation
    assert relation is not None, "complete expansions carry an edge relation"
    coll = _active_collector()
    span = None
    if coll is not None:
        span = coll.span(
            "liveness.check",
            protocol=result.spec.name,
            provider=relation.provider,
        )
        span.__enter__()
    try:
        ordered_states = sorted(result.essential, key=lambda s: s.pretty())
        pending = 0
        explored: set[_Node] = set()
        claimed: set[tuple[Op, str]] = set()
        violations: list[Violation] = []
        lassos: list[LassoWitness] = []
        for op in result.spec.operations:
            for state in ordered_states:
                symbols = sorted(
                    {label.symbol for label, _rep in state.classes}
                )
                for symbol in symbols:
                    can_stall, _can_serve = relation.request(state, symbol, op)
                    if not can_stall:
                        continue
                    pending += 1
                    if (op, symbol) in claimed:
                        continue
                    resolvable, seen = _resolvable(
                        relation, (state, symbol), op
                    )
                    explored |= seen
                    if resolvable:
                        continue
                    claimed.add((op, symbol))
                    kind, prefix, loop = _extract_lasso(
                        relation, (state, symbol), op
                    )
                    stem = [
                        LassoStep(s, None, label)
                        for s, label in _global_stem(result, relation, state)
                    ]
                    stem.extend(
                        LassoStep(s, q, label)
                        for (s, q), label in prefix
                    )
                    witness = LassoWitness(
                        op=op,
                        cache=symbol,
                        kind=kind,
                        stem=tuple(stem),
                        loop=tuple(
                            LassoStep(s, q, label) for (s, q), label in loop
                        ),
                    )
                    lassos.append(witness)
                    if kind is ErrorKind.DEADLOCK:
                        detail = (
                            "no transition can serve or unblock it "
                            "(deadlocked retry)"
                        )
                    else:
                        detail = (
                            f"a stall cycle of length {len(loop)} never "
                            "serves it"
                        )
                    violations.append(
                        Violation(
                            kind,
                            f"a cache in {symbol} can be stalled forever "
                            f"on {op.value}: {detail}",
                            state,
                        )
                    )
        report = LivenessReport(
            checked=True,
            pending=pending,
            nodes=len(explored),
            violations=tuple(violations),
            lassos=tuple(lassos),
        )
        if coll is not None:
            coll.count("liveness.pending", pending)
            coll.count("liveness.nodes", len(explored))
            coll.count("liveness.edges", relation.edge_count)
            coll.count("liveness.violations", len(violations))
            assert span is not None
            span.set(live=report.live, pending=pending)
        return report
    finally:
        if span is not None:
            span.__exit__(None, None, None)
