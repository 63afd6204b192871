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
v_i - 1]``, and a word's term is left out when that is empty (``u_i ==
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
from repro.geometry.rectangle import Rect


def _query_bounds(query) -> tuple:
    """One batch entry's ``(lows, highs)``: a :class:`Rect` or a one-row
    :class:`BoxSet`."""
    if isinstance(query, Rect):
        return query.lows, query.highs
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
                 boosting: BoostingPlan | None = None, split_levels: bool = False) -> None:
        self._strict = bool(strict)
        self._transform = EndpointTransform(domain) if strict else None
        self._words = all_words([Letter.INTERVAL, Letter.UPPER_POINT], domain.dimension)
        super().__init__(
            domain, num_instances, seed=seed, boosting=boosting,
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

    # -- named updates (aliases of ``update``) -------------------------------------------

    def insert(self, boxes: BoxSet) -> None:
        self.update("data", boxes)

    def delete(self, boxes: BoxSet) -> None:
        self.update("data", boxes, -1.0)

    # -- estimation -----------------------------------------------------------------------

    def check_queries(self, queries) -> BoxSet:
        """Range queries as one box set in sketch coordinates, one row per query.

        ``queries`` is a :class:`Rect`, a :class:`BoxSet` (one query per
        row) or a sequence of rectangles and one-row box sets.  The rows
        must match the domain's dimensionality and, endpoint-transformed
        under ``strict``, lie inside the sketch domain.
        """
        if queries is None or isinstance(queries, (int, np.integer)):
            raise QueryError("range estimates take query rectangles, not a count")
        if isinstance(queries, Rect):
            queries = [queries]
        if not isinstance(queries, BoxSet):
            bounds = [_query_bounds(query) for query in queries]
            if {len(low) for low, _ in bounds} <= {self.dimension}:
                shape = (len(bounds), self.dimension)
                queries = BoxSet(
                    np.asarray([low for low, _ in bounds], dtype=np.int64).reshape(shape),
                    np.asarray([high for _, high in bounds], dtype=np.int64).reshape(shape),
                    validate=False)
        # A sequence whose rows do not all match the domain is still a list.
        if not isinstance(queries, BoxSet) or queries.dimension != self.dimension:
            raise QueryError(
                f"queries must be {self.dimension}-dimensional like the domain")
        if self._transform is not None:
            queries = self._transform.transform_query(queries)
        if not self.bank.domain.contains(queries):
            raise QueryError(f"queries contain coordinates outside the domain "
                             f"{self.bank.domain.sizes}")
        return queries

    def _query_word(self, word: Word) -> Word:
        """The query-side word paired with a counter word (I <-> U flip)."""
        return tuple(
            Letter.INTERVAL if letter is Letter.UPPER_POINT else Letter.UPPER_POINT
            for letter in word
        )

    def _lower(self, queries: BoxSet, plan: BoostingPlan) -> list[SketchProgram]:
        """Program ``j`` lowers query ``j`` to one term per counter word: the
        word's counter cells contracted with the per-dimension letter sums
        (per level on a level-split bank) of the *query-side* word (the
        I <-> U flip), over the checked query coordinates."""
        bank = self.bank
        pairs = [(word, self._query_word(word)) for word in self._words]
        lows = queries.lows
        highs = queries.highs
        # Where a counter word reads U, a level-split bank's query range
        # ends at v - 1 (see the module docstring).
        upper = highs - 1 if bank.split_levels else highs
        programs: list[SketchProgram] = []
        for row in range(len(queries)):
            terms = []
            for word, query_word in pairs:
                ends = [int((upper if letter is Letter.UPPER_POINT else highs)[row, dim])
                        for dim, letter in enumerate(word)]
                if any(end < lows[row, dim] for dim, end in enumerate(ends)):
                    continue
                terms.append(ProgramTerm(
                    1.0,
                    counters=(CounterRef(bank, word),),
                    letter_sums=tuple(
                        LetterSumRef(bank, dim, query_word[dim], int(lows[row, dim]), end)
                        for dim, end in enumerate(ends)),
                ))
            programs.append(SketchProgram(
                terms=tuple(terms),
                num_instances=self._num_instances,
                plan=plan,
                left_count=self.count,
                right_count=1,
            ))
        return programs
