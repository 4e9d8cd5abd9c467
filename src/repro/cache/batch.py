"""Numpy batch kernels and mirrors for the vectorized backend.

The ``numpy`` backend (:mod:`repro.core.batch_engine`) classifies windows
of accesses against mirrors of the scalar structures.  This module holds
the array kernels plus the mirror objects that bind them to live scalar
state:

* :class:`TLBMirror` -- key/frame arrays rebuilt from the per-set dicts
  whenever the TLB marks itself stale (``TLB._mirror_stale``), probed
  content-style exactly like ``TLB.lookup``.  This is the one mirror the
  engine's window classifier uses (the DTLB probe yields PFNs, enabling
  vectorized physical-line computation); cache residency and MSHR state
  are revalidated with O(1) dict probes inside the drain loop instead,
  where a vector pre-screen measured as pure overhead.
* :class:`StoreMirror` -- tag-match probe over a :class:`CacheStore`'s
  columns.  The line-address column gets an incrementally-maintained int64
  mirror (``CacheStore.np_line``, written by ``reset_slot``/``load_block``);
  the flag columns need no mirror because ``np.frombuffer`` over a
  ``bytearray`` is a live writable uint8 view.
* Pure kernels (:func:`probe_lines`, :func:`tlb_probe`, :func:`psc_probe`,
  :func:`rrip_age_and_victim`, :func:`lru_victim`,
  :func:`last_occurrence_stamps`) that the property tests in
  ``tests/test_batch_kernels.py`` pin against the scalar implementations.

Dtype discipline: every address-carrying array is explicitly ``int64``.
Building arrays from Python ints without a dtype lets numpy pick one per
platform, and float round-trips silently lose address bits above 2**53 --
the hazards the kernel property tests cover (see ``_as_i64``).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.vm.address import psc_tag  # noqa: F401  (scalar reference)

I64 = np.int64


def _as_i64(values) -> np.ndarray:
    """``values`` as an int64 array, refusing lossy float round-trips.

    Addresses are 64-bit integers; accepting a float array here would
    silently truncate anything above 2**53.
    """
    arr = np.asarray(values)
    if arr.dtype.kind == "f":
        raise TypeError("address arrays must be integral, not float "
                        "(float64 loses address bits above 2**53)")
    return arr.astype(I64, copy=False)


def flag_view(buf: bytearray) -> np.ndarray:
    """Live writable uint8 view over a bytearray flag column."""
    return np.frombuffer(buf, dtype=np.uint8)


# ----------------------------------------------------------------------
# Pure kernels
# ----------------------------------------------------------------------
def probe_lines(lines_2d: np.ndarray, valid_2d: np.ndarray,
                num_ways: int, lines) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized residency probe: for each line address, is it cached?

    ``lines_2d``/``valid_2d`` are ``(num_sets, num_ways)`` views of the
    store's line/valid columns.  Returns ``(hit, slots)`` where ``hit``
    is a bool mask and ``slots[i]`` is the flat slot index (meaningful
    only where ``hit``).  Matches ``store.slot_of.get(line)`` by the
    store invariant: ``valid[slot] == 1`` iff ``line[slot]`` maps to
    ``slot`` in ``slot_of``.
    """
    lines = _as_i64(lines)
    num_sets = lines_2d.shape[0]
    set_idx = lines % num_sets
    cand = lines_2d[set_idx]                     # (n, ways) gather
    match = (cand == lines[:, None]) & (valid_2d[set_idx] != 0)
    hit = match.any(axis=1)
    way = match.argmax(axis=1)                   # first (only) valid match
    slots = set_idx * num_ways + way
    return hit, slots


def tlb_probe(keys_2d: np.ndarray, frames_2d: np.ndarray,
              vpns) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized TLB probe; returns ``(hit, pfns)``.

    ``keys_2d`` holds each set's resident VPNs (``-1`` padding for empty
    ways; VPNs are non-negative so -1 never matches).  Way order within a
    set is irrelevant -- the probe is content-based, exactly like the
    dict membership test in ``TLB.lookup``.
    """
    vpns = _as_i64(vpns)
    num_sets = keys_2d.shape[0]
    set_idx = vpns % num_sets
    match = keys_2d[set_idx] == vpns[:, None]
    hit = match.any(axis=1)
    way = match.argmax(axis=1)
    pfns = frames_2d[set_idx, way]
    return hit, pfns


def psc_probe(level_keys: List[np.ndarray], level_values: List[np.ndarray],
              level_shifts: List[int],
              vas) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized paging-structure-cache probe over all levels at once.

    ``level_keys[i]``/``level_values[i]`` hold level ``i``'s resident
    tags and next-table frames (deepest level first, matching
    ``PSC_LEVELS``); ``level_shifts[i]`` is the tag shift
    (``PAGE_SHIFT + BITS_PER_LEVEL * (level - 1)``).  Returns
    ``(hit_level_index, frames)`` with ``hit_level_index == -1`` on a
    full miss -- the deepest hit wins, like
    ``PagingStructureCaches.lookup``.
    """
    vas = _as_i64(vas)
    hit_idx = np.full(vas.shape, -1, dtype=I64)
    frames = np.full(vas.shape, -1, dtype=I64)
    for i in reversed(range(len(level_keys))):   # shallow -> deep overwrite
        keys, values = level_keys[i], level_values[i]
        if keys.size == 0:
            continue
        tags = vas >> level_shifts[i]
        match = keys[None, :] == tags[:, None]   # (n, entries)
        hit = match.any(axis=1)
        pos = match.argmax(axis=1)
        hit_idx[hit] = i
        frames[hit] = values[pos[hit]]
    return hit_idx, frames


def rrip_age_and_victim(rrpv_rows: np.ndarray,
                        max_rrpv: int) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized ``RRIPBase.victim`` over a batch of full sets.

    For each row: the victim is the first way holding the row maximum,
    and the whole row ages by ``max_rrpv - max`` (applied as one delta,
    exactly like the scalar code).  Returns ``(victim_ways, aged_rows)``;
    the input is not modified.
    """
    rows = _as_i64(rrpv_rows)
    mx = rows.max(axis=1)
    victims = rows.argmax(axis=1)                # first max, like .index()
    aged = rows + (max_rrpv - mx)[:, None]
    return victims, aged


def lru_victim(stamp_rows: np.ndarray) -> np.ndarray:
    """Vectorized ``LRUPolicy.victim``: first way with the minimum stamp."""
    return _as_i64(stamp_rows).argmin(axis=1)


def last_occurrence_stamps(keys: np.ndarray,
                           clock_start: int) -> Tuple[list, list, int]:
    """Final LRU stamps after sequentially touching ``keys``.

    The scalar structures stamp every touch with an incrementing clock;
    after a window only each key's *last* touch survives.  Returns
    ``(unique_keys, final_stamps, clock_end)`` as plain Python lists/int
    so callers can scatter into dict- or list-backed scalar state without
    leaking ``np.int64``.
    """
    keys = _as_i64(keys)
    n = int(keys.shape[0])
    if n == 0:
        return [], [], clock_start
    rev = keys[::-1]
    uniq, first_in_rev = np.unique(rev, return_index=True)
    stamps = clock_start + n - first_in_rev
    return uniq.tolist(), stamps.tolist(), clock_start + n


def first_occurrence_unique(keys: np.ndarray) -> np.ndarray:
    """Unique ``keys`` in first-occurrence order.

    The batch engine's walk-cohort dedup: a window's miss-cohort VPNs
    collapse to one descent per page, but the *order* of those descents
    must match the scalar core's first-walk order (frame allocation is
    order-dependent).  ``np.unique`` sorts by value and reports each
    value's first index; re-sorting by that index restores trace order.
    """
    keys = _as_i64(keys)
    uniq, first_idx = np.unique(keys, return_index=True)
    return uniq[np.argsort(first_idx, kind="stable")]


# ----------------------------------------------------------------------
# Mirrors binding kernels to live scalar state
# ----------------------------------------------------------------------
class StoreMirror:
    """Probe adapter over one cache's :class:`CacheStore`.

    The line mirror is maintained incrementally by the store itself; the
    valid column is viewed live.  Scalar-side fills/evictions between
    windows are therefore visible without any refresh step.
    """

    __slots__ = ("store", "num_ways", "lines_2d", "valid_2d")

    def __init__(self, store):
        self.store = store
        self.num_ways = store.num_ways
        self.lines_2d, self.valid_2d = store.as_arrays()

    def probe(self, lines) -> Tuple[np.ndarray, np.ndarray]:
        return probe_lines(self.lines_2d, self.valid_2d,
                           self.num_ways, lines)


class TLBMirror:
    """Key/frame array mirror of one :class:`repro.vm.tlb.TLB`.

    Rebuilt from the per-set dicts whenever the TLB flags
    ``_mirror_stale`` (set by ``fill``/``invalidate_all``); lookups only
    re-stamp existing entries, which the mirror doesn't carry, so hits
    never invalidate it.
    """

    __slots__ = ("tlb", "keys_2d", "frames_2d")

    def __init__(self, tlb):
        self.tlb = tlb
        shape = (tlb.num_sets, tlb.num_ways)
        self.keys_2d = np.full(shape, -1, dtype=I64)
        self.frames_2d = np.zeros(shape, dtype=I64)
        self.refresh()

    def refresh(self) -> None:
        tlb = self.tlb
        if not tlb._mirror_stale:
            return
        self.keys_2d.fill(-1)
        for s, entries in enumerate(tlb._sets):
            frames = tlb._frames[s]
            krow, frow = self.keys_2d[s], self.frames_2d[s]
            for j, vpn in enumerate(entries):
                krow[j] = vpn
                frow[j] = frames[vpn]
        tlb._mirror_stale = False

    def probe(self, vpns) -> Tuple[np.ndarray, np.ndarray]:
        self.refresh()
        return tlb_probe(self.keys_2d, self.frames_2d, vpns)
