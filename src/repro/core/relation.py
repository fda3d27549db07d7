"""The essential-state edge relation that the liveness pass walks.

The liveness analysis (:mod:`repro.liveness`) is a graph pass: for each
essential state it needs

* the **progress edges** ``(label, home, observer moves)`` -- every
  non-stalled transition some initiator can take, closed over the
  essential set through the containment covering, together with how
  each observer FSM state moves along it; and
* the **stall/serve cells** ``(symbol, op)`` -- which pending requests
  some consistent scenario refuses, and which it completes.

:class:`EdgeRelation` is that relation, backend-neutral.  Two providers
supply it: :class:`InterpRelation` re-derives each state's reactions
through :meth:`~repro.core.expansion.SymbolicExpander.reaction_events`
(the independent reference), and the compiled kernel reads the same
facts from the successor memo its expansion already filled
(:mod:`repro.kernel.essential`).  Each explorer attaches its provider to
a complete :class:`~repro.core.essential.ExpansionResult`; the
``kernel`` check of :mod:`repro.testkit.gates` compares the two state
by state.

Edges are sorted by ``(label, target rendering, moves)`` so the graph
pass never sees a provider's discovery order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .composite import CompositeState
from .expansion import SymbolicExpander
from .protocol import ProtocolSpec
from .symbols import Op

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .essential import HomeIndex

__all__ = ["ProgressEdge", "EdgeRelation", "InterpRelation"]

#: ``(symbol, op)``: one pending-request cell of an essential state.
Cell = tuple[str, Op]
#: Per-state facts: sorted progress edges, stall cells, serve cells.
Facts = tuple[tuple["ProgressEdge", ...], frozenset[Cell], frozenset[Cell]]


@dataclass(frozen=True)
class ProgressEdge:
    """One progress edge of the relation (a blocked cache observing)."""

    label: str
    target: CompositeState
    #: Observer moves of the underlying outcome: sorted (state, next).
    moves: tuple[tuple[str, str], ...]

    def observer_next(self, symbol: str) -> str:
        """Where a blocked cache in *symbol* lands along this edge."""
        for state, nxt in self.moves:
            if state == symbol:
                return nxt
        return symbol


class EdgeRelation:
    """Lazy, memoized per-state liveness facts over one expansion.

    Subclasses implement :meth:`_scan`; everything the graph pass reads
    (:meth:`edges`, :meth:`request`, :attr:`start`) is shared.
    """

    #: Which provider computed the facts (``interp`` / ``kernel``).
    provider: str = ""

    def __init__(self, spec: ProtocolSpec, augmented: bool) -> None:
        self.spec = spec
        self.augmented = augmented
        #: Progress edges over every state scanned so far.
        self.edge_count = 0
        self._facts: dict[CompositeState, Facts] = {}
        self._posed: dict[tuple[CompositeState, str, Op], tuple[bool, bool]] = {}
        self._expander: SymbolicExpander | None = None

    @property
    def expander(self) -> SymbolicExpander:
        """The interpreter's expander for this spec (built on first use)."""
        if self._expander is None:
            self._expander = SymbolicExpander(self.spec, augmented=self.augmented)
        return self._expander

    @property
    def start(self) -> CompositeState:  # pragma: no cover - abstract
        """Essential home of the initial state (where lasso stems begin)."""
        raise NotImplementedError

    def _scan(self, state: CompositeState) -> Facts:  # pragma: no cover
        raise NotImplementedError

    def facts(self, state: CompositeState) -> Facts:
        """``(edges, stalls, serves)`` of one essential state."""
        facts = self._facts.get(state)
        if facts is None:
            facts = self._facts[state] = self._scan(state)
            self.edge_count += len(facts[0])
        return facts

    def edges(self, state: CompositeState) -> tuple[ProgressEdge, ...]:
        """Outgoing progress edges of *state*, in canonical order."""
        return self.facts(state)[0]

    def request(
        self, state: CompositeState, symbol: str, op: Op
    ) -> tuple[bool, bool]:
        """``(can_stall, can_serve)`` for a pending ``op`` by *symbol*.

        A request neither stallable nor servable is *moot*: it cannot
        even be posed at this node (operation inapplicable, symbol no
        longer realizable, no consistent scenario).
        """
        _, stalls, serves = self.facts(state)
        cell = (symbol, op)
        if any(label.symbol == symbol for label, _rep in state.classes):
            return cell in stalls, cell in serves
        key = (state, symbol, op)
        cached = self._posed.get(key)
        if cached is None:
            cached = self._posed[key] = self._offclass_request(state, symbol, op)
        return cached

    def _offclass_request(
        self, state: CompositeState, symbol: str, op: Op
    ) -> tuple[bool, bool]:
        """Stall/serve classification when *symbol* labels no class.

        The blocked cache's symbol can be merged away by covering; it
        is then re-posed against the whole state as environment.  An
        unrealizable symbol (the state admits no such cache and it is
        not the ever-available invalid state) is moot.  Both providers
        answer this rare case through the interpreter's observation
        contexts.
        """
        if not self.spec.applicable(symbol, op):
            return False, False
        if symbol != self.spec.invalid:
            _lo, hi = state.symbol_interval(symbol)
            if hi == 0:
                return False, False
        can_stall = can_serve = False
        for ctx in self.expander.observation_contexts(state, symbol):
            if self.spec.react(symbol, op, ctx).stalled:
                can_stall = True
            else:
                can_serve = True
        return can_stall, can_serve


class InterpRelation(EdgeRelation):
    """The reference provider: reactions re-derived by the interpreter."""

    provider = "interp"

    def __init__(
        self,
        spec: ProtocolSpec,
        augmented: bool,
        homes: "HomeIndex",
        initial: CompositeState,
    ) -> None:
        super().__init__(spec, augmented)
        self._homes = homes
        self._initial = initial

    @property
    def start(self) -> CompositeState:
        return self._homes(self._initial)

    def _scan(self, state: CompositeState) -> Facts:
        stalls: set[Cell] = set()
        serves: set[Cell] = set()
        edges: dict[tuple[str, CompositeState, tuple], ProgressEdge] = {}
        for event in self.expander.reaction_events(state):
            cell = (event.initiator, event.op)
            if event.outcome.stalled:
                stalls.add(cell)
                continue  # a stalled step changes nothing: no edge
            serves.add(cell)
            moves = tuple(
                sorted(
                    (obs, reaction.next_state)
                    for obs, reaction in event.outcome.observers.items()
                )
            )
            label = str(event.label)
            for target in event.targets:
                home = self._homes(target)
                key = (label, home, moves)
                if key not in edges:
                    edges[key] = ProgressEdge(label, home, moves)
        ordered = tuple(
            sorted(
                edges.values(),
                key=lambda e: (e.label, e.target.pretty(), e.moves),
            )
        )
        return ordered, frozenset(stalls), frozenset(serves)
