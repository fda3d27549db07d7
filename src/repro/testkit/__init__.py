"""repro.testkit -- generative differential fuzzing of the verifier.

Theorem 1 is the paper's load-bearing claim: the essential composite
states completely characterize every concrete state an exhaustive
enumeration can reach, for *any* number of caches.  The rest of the
test suite stresses that claim with hand-written protocols and
perturbations of them; this subsystem removes the human from the loop:

* :mod:`repro.testkit.generate` -- a seeded generator of arbitrary
  *well-formed* protocol specifications (random state sets, transition
  tables, observer reactions, write-back/write-through mixes, with and
  without the sharing-detection characteristic function), validity
  checked through :meth:`ProtocolSpec.validate` and the
  :mod:`repro.lint` preflight;
* :mod:`repro.testkit.oracle` -- the differential oracle: each
  generated specification runs through the symbolic ``explore()`` and
  the exhaustive ``enumerate_space()`` for small cache counts plus the
  Theorem 1 coverage check, and any verdict or coverage disagreement
  between the engines is a finding;
* :mod:`repro.testkit.shrink` -- a delta-debugging minimizer that
  greedily deletes states, rules and observer reactions while the
  disagreement persists, leaving a minimal reproducing specification;
* :mod:`repro.testkit.corpus` -- content-addressed storage of
  minimized findings under ``tests/corpus/`` and the ``--replay``
  regression check;
* :mod:`repro.testkit.campaign` -- the ``repro fuzz`` driver: a
  seeded, budgeted campaign whose symbolic half is dispatched through
  the engine batch runner (guard budgets, journal, result cache) and
  whose findings land in the corpus, auto-shrunk;
* :mod:`repro.testkit.gates` -- the differential gates against the
  interpreter, the paper-faithful reference: the ``kernel`` check
  (:mod:`repro.kernel` is observably identical: verdicts, essential
  sets, concrete state spaces, liveness relations), the ``liveness``
  check (every ``NOT LIVE`` verdict carries a lasso that re-executes,
  a spec with no statically reachable stall is live, seeded starvers
  are caught) and the ``ir`` check (the IR round trip preserves the
  expansion, and the flow analysis is never contradicted).  One spec
  source covers the zoo, both mutant catalogs, the corpus and
  generated specs; every check over one spec shares one expansion
  per backend; ``python -m repro.testkit.gates`` is the CI entry.

Related verification efforts (the GAL model of a coherence protocol,
Meunier et al.; the CXL.cache formalisation, Tan et al.) found their
bugs by mechanically exploring specification spaces humans had not
anticipated; this package gives the reproduction the same adversary
and turns Theorem 1 from a tested claim into a continuously fuzzed
one.  See ``docs/TESTING.md``.
"""

from .campaign import CampaignConfig, CampaignReport, run_campaign
from .corpus import Corpus, CorpusEntry, ReplayReport
from .generate import GeneratorConfig, RuleModel, SpecGenerator, SpecModel
from .oracle import (
    Disagreement,
    OracleBudget,
    OracleReport,
    SymbolicView,
    run_oracle,
    symbolic_view,
)
from .shrink import ShrinkResult, shrink

__all__ = [
    "CampaignConfig",
    "CampaignReport",
    "Corpus",
    "CorpusEntry",
    "Disagreement",
    "GeneratorConfig",
    "OracleBudget",
    "OracleReport",
    "ReplayReport",
    "RuleModel",
    "ShrinkResult",
    "SpecGenerator",
    "SpecModel",
    "SymbolicView",
    "run_campaign",
    "run_oracle",
    "shrink",
    "symbolic_view",
]
