"""Delta-applied merged views: refresh a cached view in O(delta), not O(state).

Atomic sketches are linear projections, so the merged view of a name is the
*sum* of its shard counter tensors — and after a flush, the new merged view
is exactly the old one plus the counter contribution of the flushed boxes.
:func:`delta_merged_view` exploits that identity: given an immutable cached
view and a *delta estimator* (a fresh estimator of the same spec that was
fed only the updates since the view was built, see
:meth:`repro.service.store.ShardedSketchStore.record_delta`), it produces a
new view whose banks are :meth:`~repro.core.atomic.SketchBank.clone_with_delta`
clones — counter tensors computed as one fused add each, xi families
*aliased* from the cached view.

The aliasing is the load-bearing half.  Letter sums depend only on a bank's
xi families and dyadic domain, never on its counters, so a delta-applied
view answers queries through exactly the letter-sum cache entries (and warm
lazy sign tables) its predecessor populated — the steady-state serving cost
after a flush becomes one tensor add per bank instead of a full shard
re-merge plus cold letter-sum recomputation.  Bit-identity with a
from-scratch merge holds because counter updates are exact integers stored
in float64: addition is exact and order-independent.

The cached view is never mutated (concurrent estimates read it lock-free);
the clone is a new object sharing only immutable pieces.
"""

from __future__ import annotations

import copy
from typing import Any

from repro.core.atomic import SketchBank
from repro.errors import MergeCompatibilityError, ServiceError
# The tracker estimator is the general zero-counter companion; the name it
# had while it lived here stays importable.
from repro.service.specs import COUNT_ATTRS
from repro.service.specs import empty_companion as empty_delta_estimator

__all__ = ["delta_merged_view", "empty_delta_estimator", "DELTA_BOX_BUDGET"]

#: Boxes a delta tracker may accumulate before it is dropped.  The apply
#: itself is O(tensor) regardless of the box count — the budget bounds how
#: long a *watched but unqueried* name keeps paying the double-ingest cost
#: of delta recording before falling back to rebuild-on-next-query.
DELTA_BOX_BUDGET = 1 << 18

def delta_merged_view(view: Any, delta: Any) -> Any:
    """A new estimator equal to ``view + delta``, sharing ``view``'s xi state.

    ``view`` is an immutable cached merged view; ``delta`` is an estimator
    of the same spec summarising only the updates applied since ``view``
    was built.  Every :class:`~repro.core.atomic.SketchBank` attribute is
    replaced by a :meth:`~repro.core.atomic.SketchBank.clone_with_delta`
    clone (fused counter add, aliased xi families) and every input-count
    attribute by its sum; everything else — domain, boosting plan, pair
    terms, transforms — is shared, being immutable configuration.

    Raises :class:`~repro.errors.ServiceError` (or
    :class:`~repro.errors.MergeCompatibilityError`) when the two estimators
    do not line up; callers fall back to a full rebuild.
    """
    if type(delta) is not type(view):
        raise MergeCompatibilityError(
            f"cannot delta-apply {type(delta).__name__} onto "
            f"{type(view).__name__}")
    view_state = vars(view)
    delta_state = vars(delta)
    bank_attrs = [attr for attr, value in view_state.items()
                  if isinstance(value, SketchBank)]
    if not bank_attrs:
        raise ServiceError(
            f"{type(view).__name__} holds no sketch banks to delta-apply")
    clone = copy.copy(view)
    for attr in bank_attrs:
        delta_bank = delta_state.get(attr)
        if not isinstance(delta_bank, SketchBank):
            raise MergeCompatibilityError(
                f"delta estimator lacks sketch bank {attr!r}")
        setattr(clone, attr, view_state[attr].clone_with_delta(delta_bank))
    for attr in COUNT_ATTRS:
        if attr in view_state:
            setattr(clone, attr, view_state[attr] + delta_state[attr])
    # The paired-join families cache compiled program terms holding
    # CounterRefs to *their own* bank objects; the clone's banks are new.
    if "_compiled_terms" in view_state:
        clone._compiled_terms = None
    return clone
