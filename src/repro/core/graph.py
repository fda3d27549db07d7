"""Global transition diagrams (paper Figure 4).

Builds the protocol's global FSM over the essential composite states as
a :mod:`networkx` multigraph, renders it as DOT (for graphviz) and as a
deterministic ASCII adjacency listing for terminals and tests.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .essential import ExpansionResult

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["build_graph", "to_dot", "ascii_diagram"]


def build_graph(result: ExpansionResult) -> "nx.MultiDiGraph":
    """The global transition diagram as a networkx multigraph.

    Nodes are essential states (keyed by their pretty rendering, with
    the :class:`~repro.core.composite.CompositeState` attached as the
    ``state`` attribute and annotations as node attributes); edges carry
    the transition label (e.g. ``W_shared``).
    """
    import networkx as nx  # local: keeps networkx off the verify path

    graph = nx.MultiDiGraph(
        protocol=result.spec.name,
        augmented=result.augmented,
        initial=result.initial.pretty(),
    )
    for state in result.essential:
        graph.add_node(
            state.pretty(),
            state=state,
            structure=state.pretty(annotations=False),
            sharing=state.sharing.value if state.sharing is not None else None,
            mdata=state.mdata.value if state.mdata is not None else None,
            initial=(state == result.initial),
        )
    for transition in result.transitions:
        graph.add_edge(
            transition.source.pretty(),
            transition.target.pretty(),
            label=str(transition.label),
            op=transition.label.op.value,
            initiator=transition.label.initiator,
        )
    return graph


def to_dot(result: ExpansionResult) -> str:
    """Graphviz DOT rendering of the global transition diagram.

    Self-contained (no pydot dependency); edge labels match the paper's
    Figure 4 notation.
    """
    lines = [
        f'digraph "{result.spec.name}" {{',
        "  rankdir=LR;",
        '  node [shape=box, fontname="Helvetica"];',
    ]
    index = {state: f"s{i}" for i, state in enumerate(result.essential)}
    for state, node_id in index.items():
        shape = "doubleoctagon" if state == result.initial else "box"
        label = state.pretty().replace('"', r"\"")
        lines.append(f'  {node_id} [label="{label}", shape={shape}];')
    # Merge parallel edges between the same pair into one label.
    merged: dict[tuple[str, str], list[str]] = {}
    for t in result.transitions:
        key = (index[t.source], index[t.target])
        merged.setdefault(key, []).append(str(t.label))
    for (src, dst), labels in sorted(merged.items()):
        text = ", ".join(sorted(set(labels)))
        lines.append(f'  {src} -> {dst} [label="{text}"];')
    lines.append("}")
    return "\n".join(lines)


def ascii_diagram(result: ExpansionResult) -> str:
    """Deterministic adjacency listing of the global diagram."""
    order = {state: i for i, state in enumerate(result.essential)}
    lines = [f"Global transition diagram: {result.spec.full_name or result.spec.name}"]
    for state in result.essential:
        prefix = "->" if state == result.initial else "  "
        lines.append(f"{prefix} s{order[state]}: {state.pretty()}")
        outgoing = sorted(
            (t for t in result.transitions if t.source == state),
            key=lambda t: (str(t.label), order[t.target]),
        )
        for t in outgoing:
            lines.append(f"       --{t.label}--> s{order[t.target]}")
    return "\n".join(lines)
