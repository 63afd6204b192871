"""Reduce shard-local partial results into one exact estimate.

A worker's ``estimate`` with ``partial: true`` returns its merged-view
estimator **state** — counter tensors plus stream counts — rather than a
finished number.  Shipping state (not outputs) is what keeps the reduction
exact for *every* family: join estimators are bilinear in their two banks,
so per-worker estimate outputs do **not** sum across workers, but counter
tensors are linear projections of the input stream and always do.

The router folds one name's partial states once per coalesced batch with
the same vectorised :meth:`~repro.core.atomic.SketchBank.merge` the
sharded store uses in-process (one tensor add per worker, exact float64
integer sums); every query of the batch then reduces from that one merge —
bit-identical to a single-node service over the union of the boxes.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

from repro.core.program import default_executor
from repro.core.result import EstimateResult
from repro.errors import ServerError
from repro.service.specs import EstimatorSpec, compile_programs


def merge_partial_states(spec: EstimatorSpec, states: Iterable[Mapping], *,
                         template: Any = None) -> Any:
    """One merged estimator from per-worker ``state_dict`` payloads.

    Every state is loaded into a zero-counter companion of ``template`` —
    an estimator of the shared spec (which fixes the xi seeds, hence merge
    compatibility), built here when the caller keeps none — and folded
    into the accumulator: the cluster-level analogue of
    :meth:`~repro.service.store.ShardedSketchStore.merge_view`.  The
    companions alias the template's xi banks, so a caller that keeps its
    template alive also keeps the families' sign tables; every
    ``load_state_dict`` check (seed, domain, words) still runs per state.
    """
    if template is None:
        template = spec.build()
    merged = template.companion()
    for state in states:
        part = template.companion()
        try:
            part.load_state_dict(state)
        except (KeyError, TypeError, ValueError) as exc:
            raise ServerError(
                f"malformed partial state from worker: {exc}") from exc
        merged.merge(part)
    return merged


def reduce_partials(spec: EstimatorSpec, states: Iterable[Mapping],
                    query=None, *, template: Any = None) -> EstimateResult:
    """Estimate from gathered partial states (merge, then boosted reduce)."""
    merged = merge_partial_states(spec, states, template=template)
    return default_executor().run(compile_programs(spec, merged, [query]))[0]
