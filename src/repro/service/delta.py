"""Delta-applied merged views: refresh a cached view in O(delta), not O(state).

Atomic sketches are linear projections, so the merged view of a name is the
*sum* of its shard counter tensors — and after a flush, the new merged view
is exactly the old one plus the counter contribution of the flushed boxes.
:func:`delta_merged_view` exploits that identity: given an immutable cached
view and a *delta estimator* (a zero-counter companion of the view that
was fed only the batches flushed since the view was built: the service's
cache entry for the name owns it, see
:class:`repro.service.service.EstimationService`), it produces a new view (:meth:`repro.core.estimator.SketchEstimator.with_delta`) whose
banks are :meth:`~repro.core.atomic.SketchBank.clone_with_delta` clones —
counter tensors computed as one fused add each, xi families *aliased* from
the cached view.

The aliasing is the load-bearing half.  Letter sums depend only on a bank's
xi families and dyadic domain, never on its counters, so a delta-applied
view answers queries through exactly the sign tables its predecessor
built — the steady-state serving cost after a flush becomes one tensor add
per bank instead of a full shard re-merge.  Bit-identity with a
from-scratch merge holds because counter updates are exact integers stored
in float64: addition is exact and order-independent.

The cached view is never mutated (concurrent estimates read it lock-free);
the clone is a new object sharing only immutable pieces.
"""

from __future__ import annotations

from repro.core.estimator import SketchEstimator

__all__ = ["delta_merged_view", "empty_delta_estimator", "DELTA_BOX_BUDGET"]

#: Boxes a cached view's delta may accumulate before it is dropped.  The
#: apply itself is O(tensor) regardless of the box count — the budget bounds
#: how long a *cached but unqueried* name keeps paying the double-ingest
#: cost of delta recording before falling back to rebuild-on-next-query.
DELTA_BOX_BUDGET = 1 << 18


def empty_delta_estimator(template: SketchEstimator) -> SketchEstimator:
    """The delta a cached view starts from: ``template.companion()``."""
    return template.companion()


def delta_merged_view(view: SketchEstimator, delta: SketchEstimator) -> SketchEstimator:
    """A new estimator equal to ``view + delta``, sharing ``view``'s xi state.

    ``view`` is an immutable cached merged view; ``delta`` is an estimator
    of the same spec summarising only the updates applied since ``view``
    was built.  This is :meth:`repro.core.estimator.SketchEstimator.with_delta`
    under the name the service (and its benchmark) calls it by; it raises
    :class:`~repro.errors.MergeCompatibilityError` when the two do not line
    up, and callers fall back to a full rebuild.
    """
    return view.with_delta(delta)
