"""Tests for repro.memsys.mshr."""

import pytest

from repro.memsys.mshr import MSHR


def test_rejects_zero_entries():
    with pytest.raises(ValueError):
        MSHR(0)


def test_lookup_miss_returns_none():
    mshr = MSHR(4)
    assert mshr.lookup(0x10, now=0) is None


def test_merge_with_inflight_fill():
    mshr = MSHR(4)
    mshr.allocate(0x10, fill_cycle=100, now=0)
    assert mshr.lookup(0x10, now=50) == 100
    assert mshr.merges == 1


def test_completed_fill_does_not_merge():
    mshr = MSHR(4)
    mshr.allocate(0x10, fill_cycle=100, now=0)
    assert mshr.lookup(0x10, now=100) is None
    assert mshr.lookup(0x10, now=150) is None


def test_admission_free_when_not_full():
    mshr = MSHR(2)
    assert mshr.admission_delay(now=0) == 0
    mshr.allocate(0x1, 100, 0)
    assert mshr.admission_delay(now=0) == 0


def test_admission_delay_waits_for_earliest_fill():
    mshr = MSHR(2)
    mshr.allocate(0x1, 100, 0)
    mshr.allocate(0x2, 200, 0)
    # Full: the next miss waits until the earliest fill (100) completes.
    assert mshr.admission_delay(now=10) == 90
    assert mshr.admission_stall_cycles == 90


def test_admission_expires_completed_entries():
    mshr = MSHR(2)
    mshr.allocate(0x1, 100, 0)
    mshr.allocate(0x2, 200, 0)
    # At now=150 the first fill has completed: a slot is free.
    assert mshr.admission_delay(now=150) == 0


def test_prefetch_allocation_bypasses_capacity():
    mshr = MSHR(1)
    mshr.allocate(0x1, 100, 0)
    mshr.allocate_prefetch(0x2, 120, 0)
    # Both fills visible for merging.
    assert mshr.lookup(0x2, now=10) == 120
    assert mshr.occupancy(10) == 2


def test_occupancy_counts_only_pending(  ):
    mshr = MSHR(8)
    mshr.allocate(1, 50, 0)
    mshr.allocate(2, 150, 0)
    assert mshr.occupancy(100) == 1


def test_admission_delay_keeps_throttling_entry_mergeable():
    """Regression: admission throttling used to *pop* the earliest entry
    even while its fill was still in flight (earliest > now), so a later
    request to that line could no longer merge and re-issued a duplicate
    downstream access."""
    mshr = MSHR(2)
    mshr.allocate(0x1, 100, 0)
    mshr.allocate(0x2, 200, 0)
    assert mshr.admission_delay(now=10) == 90
    # 0x1's fill (cycle 100) is still in flight: it must keep merging.
    assert mshr.lookup(0x1, now=50) == 100
    assert mshr.merges == 1


def test_admission_throttling_entry_expires_lazily():
    mshr = MSHR(2)
    mshr.allocate(0x1, 100, 0)
    mshr.allocate(0x2, 200, 0)
    mshr.admission_delay(now=10)
    # Once its fill time passes, the entry retires as documented.
    assert mshr.lookup(0x1, now=150) is None
    assert mshr.admission_delay(now=150) == 0


def test_expiration_counter_balances_allocations():
    """Conservation law the runtime checker relies on:
    allocations - expirations == live entries, at every point."""
    mshr = MSHR(2)
    mshr.allocate(0x1, 100, 0)
    mshr.allocate(0x2, 200, 0)
    assert mshr.allocations - mshr.expirations == len(mshr._inflight)
    mshr.admission_delay(now=150)  # expires 0x1 (fill 100 <= 150)
    assert mshr.expirations == 1
    assert mshr.allocations - mshr.expirations == len(mshr._inflight)


def test_reallocation_of_stale_entry_counts_as_expiration():
    """A line can miss again after its previous fill completed but before
    anything expired the stale entry: the overwrite retires it."""
    mshr = MSHR(4)
    mshr.allocate(0x1, 100, 0)
    assert mshr.lookup(0x1, now=150) is None  # stale, never expired
    mshr.allocate(0x1, 300, 150)              # same line misses again
    assert mshr.allocations == 2
    assert mshr.expirations == 1
    assert mshr.allocations - mshr.expirations == len(mshr._inflight)


def test_admission_delay_covers_multiple_completions():
    """Regression: with prefetch entries pushing the table past the
    demand capacity, waiting for only the earliest fill still left the
    table over-full; the wait must cover enough completions to free a
    genuine slot."""
    mshr = MSHR(2)
    mshr.allocate(0x1, 100, 0)
    mshr.allocate(0x2, 200, 0)
    mshr.allocate_prefetch(0x3, 300, 0)
    mshr.allocate_prefetch(0x4, 400, 0)
    # 4 entries, 2 demand slots: a slot frees only once the 3rd-earliest
    # fill (300) completes, not the earliest (100).
    assert mshr.admission_delay(now=10) == 290
    # None of the throttling entries were deleted: all still merge.
    assert mshr.lookup(0x1, now=50) == 100
    assert mshr.lookup(0x4, now=50) == 400
