"""Independent re-execution of lasso witnesses.

A lasso produced by :func:`repro.liveness.analyze_liveness` is a claim
about the protocol's *reaction semantics*: every edge is a transition
some initiator can really take, the blocked cache really evolves as an
observer along it, the loop really returns to its head, and at every
loop node the pending operation really stalls (and never completes) in
every consistent scenario.  :func:`replay_lasso` re-derives all of that
from the specification alone -- through :class:`~repro.core.expansion.
SymbolicExpander`, not through the analysis that produced the witness
-- so a bug in the product construction cannot silently vouch for
itself.  The regression corpus and the property suite both replay
every pinned/emitted lasso through this function.
"""

from __future__ import annotations

from ..core.essential import ExpansionResult, HomeIndex
from ..core.expansion import SymbolicExpander
from .model import LassoStep, LassoWitness

__all__ = ["replay_lasso"]


def _progress_edge(
    expander: SymbolicExpander,
    homes: HomeIndex,
    step: LassoStep,
    next_state,
    next_cache: str | None,
) -> str | None:
    """Check one non-retry edge; returns an error message or ``None``."""
    for event in expander.reaction_events(step.state):
        if str(event.label) != step.label or event.outcome.stalled:
            continue
        for target in event.targets:
            home = homes(target)
            if home != next_state:
                continue
            if step.cache is not None and next_cache is not None:
                observed = event.outcome.observer_for(step.cache).next_state
                if observed != next_cache:
                    continue
            return None
    return (
        f"no reaction of {step.state.pretty()} takes edge {step.label} "
        f"to {next_state.pretty()}"
    )


def replay_lasso(
    result: ExpansionResult, lasso: LassoWitness
) -> tuple[bool, str | None]:
    """Re-execute *lasso* through the reaction semantics.

    Returns ``(ok, reason)``: ``ok`` is True iff every stem and loop
    edge replays, the loop closes on its head with the blocked cache
    back in its starting symbol, and the pending operation stalls --
    and never completes -- at every loop node.
    """
    if not lasso.loop:
        return False, "lasso has an empty loop"
    expander = SymbolicExpander(result.spec, augmented=result.augmented)
    homes = HomeIndex(result.essential, result.pruning)
    spec = result.spec

    # Stem and loop edges, the loop's last edge wrapping to its head.
    chain = list(lasso.stem) + list(lasso.loop)
    targets = [
        (nxt.state, nxt.cache) for nxt in chain[1:]
    ] + [(lasso.loop[0].state, lasso.loop[0].cache)]
    for step, (next_state, next_cache) in zip(chain, targets):
        if step.label.startswith("retry["):
            if len(lasso.loop) != 1 or step is not lasso.loop[0]:
                return False, "retry self-edge outside a deadlock loop"
            if expander.reaction_events(step.state) and any(
                not e.outcome.stalled
                for e in expander.reaction_events(step.state)
            ):
                return (
                    False,
                    f"deadlock node {step.state.pretty()} has a "
                    "non-stalled transition",
                )
            continue
        error = _progress_edge(expander, homes, step, next_state, next_cache)
        if error is not None:
            return False, error

    # Every loop node must refuse the pending operation outright: some
    # scenario stalls it and no scenario completes it.
    for step in lasso.loop:
        cache = step.cache
        if cache is None:
            return False, "loop step without a blocked-cache symbol"
        if not spec.applicable(cache, lasso.op):
            return (
                False,
                f"pending {lasso.op.value} is not applicable from {cache}",
            )
        contexts = expander.observation_contexts(step.state, cache)
        if not contexts:
            return (
                False,
                f"no consistent scenario poses {lasso.pending} at "
                f"{step.state.pretty()}",
            )
        stalled = completed = False
        for ctx in contexts:
            if spec.react(cache, lasso.op, ctx).stalled:
                stalled = True
            else:
                completed = True
        if completed:
            return (
                False,
                f"{lasso.pending} completes at loop node "
                f"{step.state.pretty()}: no starvation",
            )
        if not stalled:
            return (
                False,
                f"{lasso.pending} never stalls at loop node "
                f"{step.state.pretty()}",
            )
    return True, None
