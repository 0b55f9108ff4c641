"""Input preprocessing that preserves optimal solutions.

Real pattern collections contain many *dominated* sets — a set is dominated
when some other set covers at least the same elements at no greater cost
(e.g. the pattern ``(A, West)`` is dominated by ``(ALL, West)`` whenever
every West record has type A but the broader pattern costs the same).
Dropping dominated sets never changes the optimal cost, integral or
fractional (docs/ALGORITHMS.md), and shrinks the instance for the exact
solver and the LP.

Greedy algorithms may select *different* (never cheaper-than-optimal)
solutions on the reduced instance, because tie-breaking sees fewer
candidates; callers who need bit-identical greedy output should not
preprocess.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.core.setsystem import SetSystem
from repro.obs import trace as obs_trace

#: Candidate dominator pairs allowed per CSR entry (``n_pairs + n_sets``)
#: of a system. Above it (say thousands of copies of one set) the
#: reduction would grow quadratically, so the system is left whole.
PAIRS_PER_ENTRY = 64

#: Largest ``(n_sets, ceil(n / 64))`` bitmask the subset test builds, in
#: bytes; a larger system is left whole.
MAX_MASK_BYTES = 16 * 1024 * 1024

#: ``uint64`` words per subset-test chunk (1 MiB of gathered rows).
CHUNK_WORDS = 1 << 17

#: Reductions per system: ``(view, ids)``, or None when nothing is
#: dropped (the system is its own reduction). Weak keys, so a dropped
#: system drops its reduction; the view holds no reference to its parent.
_REDUCED_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def reduced_view(system: SetSystem) -> tuple[SetSystem, np.ndarray]:
    """``(view, ids)``: the system without dominated or empty sets, and
    the original id of each of the view's sets (ascending).

    A set ``s`` is dominated when another set ``t`` has
    ``Ben(s) <= Ben(t)`` and ``Cost(t) <= Cost(s)``; of equal sets at
    equal cost the lowest id survives. Computed once per system from the
    CSR. The view keeps the parent's labels, and its ``labels_sorted``
    when the parent has it. A system with more candidate pairs than
    :data:`PAIRS_PER_ENTRY` allows, or too wide for
    :data:`MAX_MASK_BYTES`, is its own view, empty sets included.
    """
    if system in _REDUCED_CACHE:
        reduced = _REDUCED_CACHE[system]
    else:
        with (
            obs_trace.span(
                "preprocess", op="remove_dominated", n_sets=system.n_sets
            )
            if obs_trace.enabled()
            else obs_trace.NULL_SPAN
        ) as sp:
            ids = _survivors(system)
            if sp.enabled:
                sp.set(survivors=system.n_sets if ids is None else len(ids))
        reduced = None if ids is None else (system.subsystem(ids), ids)
        _REDUCED_CACHE[system] = reduced
    if reduced is None:
        return system, np.arange(system.n_sets, dtype=np.int64)
    return reduced


def remove_dominated(system: SetSystem) -> SetSystem:
    """The system without dominated or empty sets; see :func:`reduced_view`.

    Set ids are re-densified in their original order. Intended as a
    preprocessing step before :func:`repro.core.exact.solve_exact`; the
    LP relaxation reduces its input itself.
    """
    return reduced_view(system)[0]


def _survivors(system: SetSystem) -> np.ndarray | None:
    """Ascending ids of the nonempty undominated sets; None when every
    set survives or a limit holds the reduction back.

    Any dominator of ``s`` holds ``s``'s rarest element, so the
    candidates of ``s`` are that element's sets. The cost, size and id
    filters keep the dominance order of the frozenset scan they replace
    (bigger first, then cheaper, then lower id), and a bitmask test in
    chunks of :data:`CHUNK_WORDS` checks ``Ben(s) <= Ben(t)``.
    """
    indptr, indices, costs = system.csr()
    m, n = system.n_sets, system.n_elements
    sizes = np.diff(indptr)
    nonempty = np.flatnonzero(sizes)
    if not nonempty.size:
        return None if m == 0 else nonempty
    n_words = (n + 63) // 64
    if m * n_words * 8 > MAX_MASK_BYTES:
        return None
    owner = np.repeat(np.arange(m, dtype=np.int64), sizes)
    freq = np.bincount(indices, minlength=n)
    # Within each set, its elements by ascending frequency: the first is
    # the rarest.
    by_freq = np.lexsort((freq[indices], owner))
    rarest = indices[by_freq[indptr[nonempty]]]
    counts = freq[rarest]
    ends = np.cumsum(counts)
    total = int(ends[-1])
    if total > PAIRS_PER_ENTRY * (len(indices) + m):
        return None
    # holders[first[e]:first[e] + freq[e]]: the sets holding element e.
    holders = owner[np.argsort(indices, kind="stable")]
    first = np.concatenate(([0], np.cumsum(freq)[:-1]))
    base = first[rarest] - (ends - counts)

    word = owner * n_words + (indices >> 6)
    bits = np.left_shift(np.uint64(1), (indices & 63).astype(np.uint64))
    starts = np.flatnonzero(np.diff(word, prepend=-1))
    mask = np.zeros(m * n_words, dtype=np.uint64)
    mask[word[starts]] = np.bitwise_or.reduceat(bits, starts)
    mask = mask.reshape(m, n_words)

    dominated = np.zeros(m, dtype=bool)
    step = max(1, CHUNK_WORDS // n_words)
    for lo in range(0, total, step):
        pair = np.arange(lo, min(total, lo + step), dtype=np.int64)
        which = np.searchsorted(ends, pair, side="right")
        s = nonempty[which]
        t = holders[base[which] + pair]
        keep = (t != s) & (costs[t] <= costs[s])
        bigger = sizes[t] > sizes[s]
        keep &= bigger | (
            (sizes[t] == sizes[s]) & ((costs[t] < costs[s]) | (t < s))
        )
        s, t = s[keep], t[keep]
        covered = ~(mask[s] & ~mask[t]).any(axis=1)
        dominated[s[covered]] = True
    survivors = nonempty[~dominated[nonempty]]
    survivors.flags.writeable = False
    return None if len(survivors) == m else survivors
