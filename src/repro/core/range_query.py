"""Range-query selectivity estimation (Section 6.4, Lemma 9).

A range query selects every hyper-rectangle of R that overlaps the query
hyper-rectangle ``q``.  Because the query is known at estimation time, only
the data set needs to be sketched.  Per dimension, an interval ``[a, b]`` of
R overlaps the query range ``[u, v]`` iff

    (b lies in [u, v])   or   (v lies in [a, b]),

two conditions that together cover all overlap cases and exclude each
other unless ``b == v`` — an interval ending exactly at the query's upper
end is counted twice, which the paper's Assumption 1 (no common endpoints,
what ``strict=True`` enforces) rules out.  Hence two atomic sketches per
dimension suffice: ``X_I`` (interval cover) and ``X_U`` (upper-endpoint
point cover), and per instance

    Z = sum over words w in {I, U}^d of
            prod_i q_i(w[i]) * X_w

where ``q_i(U)`` is the xi sum over the dyadic cover of the query range in
dimension ``i`` and ``q_i(I)`` is the xi sum over the point cover of the
query's upper endpoint ``v_i``.  A level-split bank (below) reads the
first condition as ``b in [u, v - 1]`` instead — ``q_i(U)`` covers ``[u_i,
v_i - 1]``, and its letter sums read zero when that is empty (``u_i ==
v_i``) — so the two conditions exclude each other and ``E[Z]`` is the
exact count without Assumption 1.  A one-cell bank keeps the closed range,
so stored state answers as it always has.

Level-split counters (``split_levels``, what every new ``range`` spec over
a 1-D or 2-D domain gets): each word keeps one cell per tuple of
per-dimension dyadic levels, ``X_w[l_1, .., l_d]``, summing only the cover
nodes on those levels, and

    Z = sum over w, over level tuples l of
            X_w[l] * prod_i q_i(w[i])[l_i]

with ``q_i(.)[l]`` the query's xi sum over its level-``l`` cover nodes.
Two xi variables are correlated only when they are the same node, and a
node has one level, so the split leaves ``E[Z]`` as it was; the cells
summed over levels are the one-cell counters.  What the split removes is
every variance term that pairs a data node on one level with a query node
on another — in particular the heavy top nodes of the data times the many
fine nodes of a query's cover.

The reported value of a level-split bank.  Every box overlaps the whole
sketch domain, so that query's ``Z_N`` has ``E[Z_N] = N``, the exact net
box count the estimator keeps — a free control variate.  A split program
carries it as one extra column, and per query the executor replaces each
instance's ``Z`` by ``Z - beta (Z_N - N)`` with ``beta = cov(Z, Z_N) /
var(Z_N)`` over the instances
(:func:`~repro.core.boosting.control_adjusted`).  The estimate is the mean
of *all* adjusted instances — one group, as :attr:`boosting_plan` says —
clipped to ``[0, N]``; its ``instance_values`` and ``group_means`` are the
adjusted, unclipped values.  A one-cell bank keeps the paper's median of
group means, with no control and no clip, so stored state answers bit for
bit as it always has.

Note on boundaries: the counting conditions use closed containment, so a
data rectangle that merely *touches* the query rectangle is counted as
selected.  This matches the common "window query" semantics; build the
estimator with ``strict=True`` to apply the endpoint transformation and
reproduce the strict Definition 1 semantics.
"""

from __future__ import annotations

import numpy as np

from repro.core.atomic import Letter, SketchBank, Word, all_words
from repro.core.boosting import BoostingPlan
from repro.core.domain import Domain, EndpointTransform
from repro.core.estimator import Prepared, SketchEstimator, Side
from repro.core.program import CounterRef, LetterSumRef, ProgramTerm, SketchProgram
from repro.errors import QueryError
from repro.geometry.boxset import BoxSet


def _query_bounds(query) -> tuple:
    """One batch entry's ``(lows, highs)``: a one-row :class:`BoxSet`."""
    if isinstance(query, BoxSet) and len(query) == 1:
        return query.lows[0], query.highs[0]
    if query is None:
        raise QueryError("a range estimate needs a query rectangle")
    raise QueryError("each query must be exactly one rectangle")


class RangeQueryEstimator(SketchEstimator):
    """Estimates ``|Q(q, R)|``, the number of rectangles of R overlapping ``q``.

    Parameters
    ----------
    domain:
        The data space.
    num_instances:
        Number of independent atomic-sketch instances.
    strict:
        When True, the Section 5.2 endpoint transformation is applied so
        that touching rectangles are *not* counted (Definition 1 semantics).
        When False (default), closed-overlap semantics are used.
    split_levels:
        Keep one counter cell per (word, per-dimension level tuple) — see
        the module docstring; 1-D and 2-D domains only.
    """

    SIDES = (Side("data", "bank", "count", aliases=("left",)),)
    STATE_COMPAT = ("strict",)
    QUERYABLE = True

    def __init__(self, domain: Domain, num_instances: int, *, seed=0, strict: bool = False,
                 split_levels: bool = False) -> None:
        self._strict = bool(strict)
        self._transform = EndpointTransform(domain) if strict else None
        self._words = all_words([Letter.INTERVAL, Letter.UPPER_POINT], domain.dimension)
        super().__init__(
            domain, num_instances, seed=seed, boosting=None,
            sketch_domain=(self._transform.expanded_domain
                           if self._transform is not None else domain),
            words=(self._words,), split_levels=split_levels)

    # -- introspection ----------------------------------------------------------------

    @property
    def count(self) -> int:
        """Current cardinality of the summarised relation."""
        return self._cardinality["data"]

    @property
    def bank(self) -> SketchBank:
        return self._banks["data"]

    # -- the contract's family pieces ----------------------------------------------------

    def _prepare(self, side: str, boxes: BoxSet) -> Prepared:
        if self._transform is None:
            return boxes, None
        # Data rectangles play the role of the shrunk (S) side so that a data
        # rectangle touching the query no longer overlaps it.
        return self._transform.transform_right(boxes), None

    def _compatibility(self) -> dict:
        return {"strict": self._strict}

    # -- estimation -----------------------------------------------------------------------

    def check_queries(self, queries) -> tuple[BoxSet, dict[int, QueryError]]:
        """Range queries in sketch coordinates, and a verdict per row.

        ``queries`` is a :class:`BoxSet` (one query per row) or a sequence
        of one-row box sets.  A row passes when it matches the domain's
        dimensionality, has no lower endpoint above its upper one and,
        endpoint-transformed under ``strict``, lies inside the sketch domain.
        Returns the rows that pass as one box set, in order, and the
        :class:`QueryError` of every row that does not, keyed by its
        position in ``queries``.
        """
        if queries is None or isinstance(queries, (int, np.integer)):
            raise QueryError("range estimates take query rectangles, not a count")
        dimension = self.dimension
        wrong_dimension = f"queries must be {dimension}-dimensional like the domain"
        refused: dict[int, QueryError] = {}
        if isinstance(queries, BoxSet):
            if queries.dimension != dimension:
                raise QueryError(wrong_dimension)
            rows = np.arange(len(queries))
            lows, highs = queries.lows, queries.highs
        else:
            kept = []
            for row, query in enumerate(queries):
                try:
                    low, high = _query_bounds(query)
                    if len(low) != dimension:
                        raise QueryError(wrong_dimension)
                    kept.append((row, low, high))
                except QueryError as exc:
                    refused[row] = exc
            shape = (len(kept), dimension)
            rows = np.asarray([row for row, _, _ in kept], dtype=np.int64)
            lows = np.asarray([low for _, low, _ in kept], dtype=np.int64).reshape(shape)
            highs = np.asarray([high for _, _, high in kept], dtype=np.int64).reshape(shape)
        sketched = BoxSet(lows, highs, validate=False)
        if self._transform is not None:
            sketched = self._transform.transform_query(sketched)
        inverted = (lows > highs).any(axis=1)
        sizes = self.bank.domain.sizes
        outside = ((sketched.lows < 0) | (sketched.highs >= np.asarray(sizes))).any(axis=1)
        for index in np.flatnonzero(inverted | outside).tolist():
            row = f"query {lows[index].tolist() + highs[index].tolist()}"
            refused[int(rows[index])] = QueryError(
                f"{row} has a lower endpoint above its upper endpoint"
                if inverted[index] else
                f"{row} has coordinates outside the domain {sizes}")
        passed = ~(inverted | outside)
        if not passed.all():
            sketched = BoxSet(sketched.lows[passed], sketched.highs[passed],
                              validate=False)
        return sketched, refused

    @property
    def boosting_plan(self) -> BoostingPlan:
        """One group of every instance on a level-split bank (see the
        module docstring), and the paper's median of group means on a
        one-cell bank."""
        if self.bank.split_levels:
            return BoostingPlan(group_size=self._num_instances, num_groups=1)
        return super().boosting_plan

    def _query_word(self, word: Word) -> Word:
        """The query-side word paired with a counter word (I <-> U flip)."""
        return tuple(
            Letter.INTERVAL if letter is Letter.UPPER_POINT else Letter.UPPER_POINT
            for letter in word
        )

    def _lower(self, queries: BoxSet) -> list[SketchProgram]:
        """One program for the batch: one term per counter word, the word's
        counter cells contracted with the per-dimension letter sums (per
        level on a level-split bank) of the *query-side* word (the I <-> U
        flip), whose columns hold every checked query's interval.

        Where a counter word reads U, a level-split bank's query range ends
        at ``v - 1`` (see the module docstring): a query with ``u == v``
        there has an empty interval, whose letter sums read zero.  A
        level-split program also carries the control: one last column,
        the whole sketch domain, whose expectation is the net box count.
        """
        bank = self.bank
        lows, highs = queries.lows, queries.highs
        control = None
        if bank.split_levels:
            whole = np.asarray(bank.domain.sizes, dtype=np.int64) - 1
            lows = np.vstack((lows, np.zeros_like(whole)))
            highs = np.vstack((highs, whole))
            control = float(self.count)
        upper = highs - 1 if bank.split_levels else highs
        refs = {}
        for dim in range(self.dimension):
            refs[dim, Letter.UPPER_POINT] = LetterSumRef(
                bank, dim, Letter.UPPER_POINT, lows[:, dim], highs[:, dim])
            refs[dim, Letter.INTERVAL] = LetterSumRef(
                bank, dim, Letter.INTERVAL, lows[:, dim], upper[:, dim])
        terms = tuple(
            ProgramTerm(1.0, counters=(CounterRef(bank, word),),
                        letter_sums=tuple(refs[dim, letter] for dim, letter
                                          in enumerate(self._query_word(word))))
            for word in self._words)
        return [SketchProgram(terms=terms, num_instances=self._num_instances,
                              plan=self.boosting_plan, left_count=self.count, right_count=1,
                              control=control)]
