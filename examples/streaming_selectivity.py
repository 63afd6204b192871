"""Streaming maintenance: selectivity tracking under inserts AND deletes.

The paper's headline feature over histogram techniques is that spatial
sketches are linear projections: they can be maintained incrementally under
arbitrary insert/delete streams and therefore summarise *streaming* spatial
data.  This example simulates a feed of land-parcel updates (half of the
parcels are later retracted), keeps a rectangle-join sketch up to date, and
periodically compares the estimated join cardinality against the exact
value computed from the current database state.

Run with::

    python examples/streaming_selectivity.py
"""

from __future__ import annotations

import numpy as np

from repro import Domain, SpatialJoinEstimator
from repro.data import synthetic
from repro.data.streams import UpdateKind, UpdateStream
from repro.exact import rectangle_join_count
from repro.geometry.boxset import BoxSet


def main() -> None:
    rng = np.random.default_rng(3)
    domain = Domain.square(4096, dimension=2)

    # A static reference layer (e.g. protected areas) and a streamed layer
    # (e.g. land parcels with corrections/retractions).
    reference = synthetic.generate_rectangles(3_000, domain, skew=0.5, rng=rng)
    parcels = synthetic.generate_rectangles(4_000, domain, rng=rng)
    stream = UpdateStream(parcels, delete_fraction=0.5, warmup_fraction=0.4, seed=17)

    estimator = SpatialJoinEstimator(domain.with_max_level(5), num_instances=384, seed=5)
    estimator.update("right", reference)

    # Replay the stream, checkpointing every few thousand operations.
    live_lows: list[np.ndarray] = []
    live_highs: list[np.ndarray] = []

    def current_state() -> BoxSet:
        if not live_lows:
            return BoxSet.empty(2)
        return BoxSet(np.array(live_lows), np.array(live_highs), validate=False)

    operations = 0
    checkpoint_every = stream.expected_length() // 6
    print(f"{'operations':>11}  {'|parcels|':>9}  {'estimate':>10}  {'exact':>10}  {'rel.err':>7}")
    for operation in stream:
        box = operation.box
        if operation.kind is UpdateKind.INSERT:
            estimator.update("left", box)
            live_lows.append(box.lows[0])
            live_highs.append(box.highs[0])
        else:
            estimator.update("left", box, -1.0)
            for index in range(len(live_lows)):
                if np.array_equal(live_lows[index], box.lows[0]) and \
                        np.array_equal(live_highs[index], box.highs[0]):
                    del live_lows[index]
                    del live_highs[index]
                    break
        operations += 1
        if operations % checkpoint_every == 0:
            state = current_state()
            exact = rectangle_join_count(state, reference)
            estimate = estimator.estimate().estimate
            error = abs(estimate - exact) / exact if exact else float("nan")
            print(f"{operations:>11}  {len(state):>9}  {estimate:>10,.0f}  "
                  f"{exact:>10,}  {error:>7.3f}")

    print("\nThe sketch never rescans the data: every update touches "
          "O(log^2 n) counters per atomic sketch, deletes included.")


if __name__ == "__main__":
    main()
