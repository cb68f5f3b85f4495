"""Top-level compilation pipeline (paper Figure 12).

``compile_pattern`` runs the full front-end → middle-end → cost-model →
back-end flow and returns a :class:`CompiledPlan` ready for the runtime
engine.  ``compile_spec`` skips the search and compiles one explicit spec
(used by the PLR and cost-model experiments, which sweep the space
manually).
"""

from __future__ import annotations

import hashlib
import pickle
import time
import weakref
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable

from repro.compiler.build import PlanInfo, build_ast
from repro.compiler.codegen import compile_root
from repro.compiler.passes import PassOptions, optimize
from repro.compiler.search import SearchOptions, search
from repro.compiler.specs import Constraint, PlanSpec
from repro.costmodel import CostModel, CostProfile, get_model
from repro.exceptions import CompilationError
from repro.observe.ledger import note_phase
from repro.observe.trace import span
from repro.patterns.pattern import Pattern

__all__ = ["CompiledPlan", "compile_pattern", "compile_spec"]

# Per-profile cache of count-mode unconstrained plans.  Counting plans are
# isomorphism-invariant, and the recursive compilation of global-shrinkage
# corrections re-encounters the same quotient classes constantly.
_PLAN_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


@dataclass
class CompiledPlan:
    """An executable GPM plan plus everything needed to explain it.

    ``aux_plans`` carries the globally-counted shrinkage corrections of a
    ``include_shrinkages=False`` decomposition: pairs of (quotient plan,
    injective-count multiplier); the engine subtracts
    ``multiplier * quotient_raw_count`` from the main accumulator.
    """

    pattern: Pattern
    spec: PlanSpec
    mode: str
    root: object
    info: PlanInfo
    source: str
    function: Callable
    cost: float
    compile_seconds: float
    model_name: str
    aux_plans: tuple[tuple["CompiledPlan", int], ...] = ()
    #: Orientation the plan was compiled for.  Non-``"none"`` plans may
    #: contain ``oriented`` adjacency ops and must execute on the
    #: matching :class:`~repro.graph.transform.OrientedGraph`; the
    #: engine wraps the input graph accordingly.
    orientation: str = "none"

    @cached_property
    def frozen_ir(self) -> tuple[bytes, bytes]:
        """``(digest, pickled IR root)``: how the plan travels to pool
        workers, which re-lower it themselves (the digest keys their
        plan memo, so equal IR compiled twice is shipped once)."""
        payload = pickle.dumps(self.root, protocol=pickle.HIGHEST_PROTOCOL)
        return hashlib.blake2b(payload, digest_size=16).digest(), payload

    @property
    def uses_decomposition(self) -> bool:
        return self.spec.kind == "decomp"

    def describe(self) -> str:
        kind = "decomposition" if self.uses_decomposition else "direct"
        aux = (
            f", {len(self.aux_plans)} global shrinkage plan(s)"
            if self.aux_plans else ""
        )
        return (
            f"{kind} plan for {self.pattern.name or 'pattern'}: "
            f"{self.spec.describe()}{aux} (predicted cost {self.cost:.3g}, "
            f"compiled in {self.compile_seconds * 1e3:.1f} ms)"
        )


def compile_pattern(
    pattern: Pattern,
    profile: CostProfile,
    model: CostModel | str = "approx_mining",
    mode: str = "count",
    induced: bool = False,
    constraints: tuple[Constraint, ...] = (),
    options: SearchOptions = SearchOptions(),
    orientation: str = "none",
) -> CompiledPlan:
    """Search the algorithm space and compile the best candidate.

    ``orientation`` enables the middle-end's adjacency-rewriting pass:
    the resulting plan expects to run on the matching orientation-
    relabeled graph (the engine wraps the input automatically).  Only
    count-mode unconstrained plans may be oriented — relabeling changes
    vertex ids, which emit-mode UDFs and constraint predicates observe.
    """
    if isinstance(model, str):
        model = get_model(model)
    if orientation != "none":
        if mode != "count" or constraints:
            raise CompilationError(
                "orientation applies to unconstrained counting plans "
                "only: relabeled vertex ids would leak into emit-mode "
                "partial embeddings and constraint predicates"
            )
        options = replace(
            options, passes=replace(options.passes, orient=orientation)
        )
    cache_key = None
    if mode == "count" and not constraints:
        from repro.patterns.isomorphism import canonical_code

        cache = _PLAN_CACHE.setdefault(profile, {})
        cache_key = (
            canonical_code(pattern), model.name, induced, options, orientation,
        )
        cached = cache.get(cache_key)
        if cached is not None:
            return cached
    started = time.perf_counter()
    with span("compile", pattern=pattern.name or repr(pattern), mode=mode,
              orientation=orientation):
        search_started = time.perf_counter()
        with span("search"):
            best = search(
                pattern, profile, model, mode=mode, induced=induced,
                constraints=constraints, options=options,
            )
        note_phase("search", time.perf_counter() - search_started)
        with span("codegen"):
            function, source = compile_root(best.root)
        aux_plans: tuple = ()
        spec = best.spec
        if getattr(spec, "include_shrinkages", True) is False:
            from repro.patterns.isomorphism import automorphism_count

            aux = []
            for shrinkage in spec.decomposition.shrinkages:
                quotient_plan = compile_pattern(
                    shrinkage.pattern, profile, model, mode="count",
                    options=options, orientation=orientation,
                )
                multiplier = (
                    automorphism_count(shrinkage.pattern)
                    // quotient_plan.info.divisor
                )
                aux.append((quotient_plan, multiplier))
            aux_plans = tuple(aux)
    elapsed = time.perf_counter() - started
    note_phase("compile", elapsed)
    _publish_orient_counters(orientation, best.report)
    # Sound fallback: when the orient pass rewrote nothing (the winning
    # plan's restrictions don't align with the rank), the plan records
    # orientation "none" and the session executes it on the *original*
    # graph.  Relabeling without rewrites still counts correctly but can
    # actively hurt — it systematically makes the higher-degree endpoint
    # of every edge the extension pivot.
    effective_orientation = orientation
    if orientation != "none" and not (best.report and best.report.oriented):
        effective_orientation = "none"
    plan = CompiledPlan(
        pattern=pattern,
        spec=best.spec,
        mode=mode,
        root=best.root,
        info=best.info,
        source=source,
        function=function,
        cost=best.cost,
        compile_seconds=elapsed,
        model_name=model.name,
        aux_plans=aux_plans,
        orientation=effective_orientation,
    )
    if cache_key is not None:
        _PLAN_CACHE[profile][cache_key] = plan
    return plan


def _publish_orient_counters(orientation: str, report) -> None:
    """Registry counters for the *selected* plan's orient-pass activity.

    Published here rather than inside the pass: the search optimizes
    every candidate, and counting losing candidates would overstate the
    rewrite's reach by an order of magnitude.
    """
    if orientation == "none" or report is None:
        return
    from repro.observe import metrics as om

    if report.oriented:
        om.counter(
            "repro_orient_loops_rewritten_total",
            "adjacency lookups switched to oriented out-neighborhoods",
        ).inc(report.oriented)
    if report.orient_elided:
        om.counter(
            "repro_orient_trims_elided_total",
            "symmetry trims proven redundant by orientation",
        ).inc(report.orient_elided)
    if report.orient_fallbacks:
        om.counter(
            "repro_orient_fallbacks_total",
            "trim chains kept on plain adjacency (misaligned restriction)",
        ).inc(report.orient_fallbacks)


def compile_spec(
    spec: PlanSpec,
    mode: str = "count",
    passes: PassOptions = PassOptions(),
    profile: CostProfile | None = None,
    model: CostModel | str | None = None,
) -> CompiledPlan:
    """Compile one explicit spec without searching."""
    started = time.perf_counter()
    root, info = build_ast(spec, mode)
    optimize(root, passes)
    cost = float("nan")
    model_name = "none"
    if profile is not None and model is not None:
        if isinstance(model, str):
            model = get_model(model)
        from repro.costmodel import estimate_cost

        cost = estimate_cost(root, profile, model)
        model_name = model.name
    function, source = compile_root(root)
    elapsed = time.perf_counter() - started
    return CompiledPlan(
        pattern=spec.pattern,
        spec=spec,
        mode=mode,
        root=root,
        info=info,
        source=source,
        function=function,
        cost=cost,
        compile_seconds=elapsed,
        model_name=model_name,
    )
