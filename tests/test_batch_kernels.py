"""Seeded property tests: batch kernels vs the scalar structures.

Each kernel in :mod:`repro.cache.batch` re-expresses one scalar decision
(residency probe, TLB/PSC lookup, RRIP/LRU victim choice, LRU stamping)
as an array operation.  These tests drive both sides with the same
seeded random state and require *decision-level* equality -- the same
hits, the same slots, the same victims, the same stamps -- which is the
property the backend's bit-identity contract rests on.

Address generators deliberately include values above 2**53 (where
float64 round-trips silently lose bits); see the dtype-hazard tests at
the bottom and ``_as_i64`` in :mod:`repro.cache.batch`.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.cache.batch import (StoreMirror, TLBMirror, _as_i64,
                               last_occurrence_stamps, lru_victim,
                               probe_lines, psc_probe, rrip_age_and_victim,
                               tlb_probe)
from repro.cache.block import CacheBlock
from repro.cache.replacement.lru import LRUPolicy
from repro.cache.replacement.srrip import SRRIPPolicy
from repro.cache.store import CacheStore
from repro.params import BITS_PER_LEVEL, PAGE_SHIFT, default_config
from repro.vm.psc import PSC_LEVELS, PagingStructureCaches
from repro.vm.tlb import TLB

SEEDS = (1, 7, 42)

#: High bit set well above 2**53: any float round-trip in a kernel would
#: corrupt these and the comparisons below would catch it.
HIGH_BASE = 1 << 56


def _line_in_set(rng: random.Random, num_sets: int, set_idx: int) -> int:
    """A random line address (sometimes above 2**53) mapping to set_idx."""
    raw = rng.getrandbits(57) if rng.random() < 0.5 else \
        HIGH_BASE + rng.getrandbits(40)
    return raw - (raw % num_sets) + set_idx


# ----------------------------------------------------------------------
# Residency probe vs slot_of
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_probe_lines_matches_slot_of(seed):
    rng = random.Random(seed)
    num_sets, num_ways = rng.choice(((16, 4), (64, 8), (8, 16)))
    store = CacheStore(num_sets, num_ways)
    mirror = StoreMirror(store)
    resident = []
    for _ in range(num_sets * num_ways // 2):
        set_idx = rng.randrange(num_sets)
        way = rng.randrange(num_ways)
        slot = set_idx * num_ways + way
        if store.valid[slot]:
            del store.slot_of[store.line[slot]]
        line = _line_in_set(rng, num_sets, set_idx)
        store.reset_slot(slot, line, fill_cycle=0)
        store.slot_of[line] = slot
        resident.append(line)
    # Some random invalidations so stale addresses linger in the columns.
    for line in rng.sample(resident, len(resident) // 4):
        slot = store.slot_of.pop(line, None)
        if slot is not None:
            store.valid[slot] = 0
    probes = [rng.choice(resident) if rng.random() < 0.6 else
              _line_in_set(rng, num_sets, rng.randrange(num_sets))
              for _ in range(200)]
    hit, slots = mirror.probe(probes)
    for i, line in enumerate(probes):
        expected = store.slot_of.get(line)
        assert bool(hit[i]) == (expected is not None), hex(line)
        if expected is not None:
            assert int(slots[i]) == expected, hex(line)


# ----------------------------------------------------------------------
# TLB probe vs TLB.lookup
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_tlb_probe_matches_lookup(seed):
    rng = random.Random(seed)
    tlb = TLB(default_config(64).dtlb)
    vpns = []
    for _ in range(tlb.num_sets * tlb.num_ways * 2):  # force evictions
        vpn = rng.getrandbits(45) | (1 << 44)
        tlb.fill(vpn, pfn=rng.getrandbits(40))
        vpns.append(vpn)
    mirror = TLBMirror(tlb)
    probes = [rng.choice(vpns) if rng.random() < 0.6 else
              rng.getrandbits(45) for _ in range(300)]
    hit, pfns = mirror.probe(probes)
    for i, vpn in enumerate(probes):
        frame = tlb.lookup(vpn, count=False)
        assert bool(hit[i]) == (frame is not None), hex(vpn)
        if frame is not None:
            assert int(pfns[i]) == frame, hex(vpn)


# ----------------------------------------------------------------------
# PSC probe vs PagingStructureCaches.lookup
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_psc_probe_matches_lookup(seed):
    rng = random.Random(seed)
    psc = PagingStructureCaches(default_config(64).psc)
    for _ in range(100):
        va = rng.getrandbits(56)
        level = rng.choice(PSC_LEVELS)
        psc.fill(va, level, next_table_frame=rng.getrandbits(40))
    level_keys, level_values, level_shifts = [], [], []
    for level in PSC_LEVELS:
        data = psc._caches[level]._data
        level_keys.append(np.asarray(list(data.keys()), dtype=np.int64))
        level_values.append(np.asarray(list(data.values()), dtype=np.int64))
        level_shifts.append(PAGE_SHIFT + BITS_PER_LEVEL * (level - 1))
    probes = [rng.getrandbits(56) for _ in range(300)]
    hit_idx, frames = psc_probe(level_keys, level_values, level_shifts,
                                probes)
    for i, va in enumerate(probes):
        level, frame = psc.lookup(va)
        expected_idx = PSC_LEVELS.index(level) if level is not None else -1
        assert int(hit_idx[i]) == expected_idx, hex(va)
        if level is not None:
            assert int(frames[i]) == frame, hex(va)


# ----------------------------------------------------------------------
# Replacement-policy kernels vs scalar victim()
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_rrip_age_and_victim_matches_scalar(seed):
    rng = random.Random(seed)
    num_sets, num_ways = 32, 8
    store = CacheStore(num_sets, num_ways)
    policy = SRRIPPolicy(num_sets, num_ways)
    policy.bind(store)
    rows = np.asarray([[rng.randint(0, policy.max_rrpv)
                        for _ in range(num_ways)]
                       for _ in range(num_sets)], dtype=np.int64)
    store.rrpv[:] = [int(v) for v in rows.ravel()]
    victims, aged = rrip_age_and_victim(rows, policy.max_rrpv)
    for set_idx in range(num_sets):
        assert int(victims[set_idx]) == policy.victim(set_idx, None)
    # victim() applies the aging delta in place; the kernel must agree.
    assert aged.ravel().tolist() == store.rrpv


@pytest.mark.parametrize("seed", SEEDS)
def test_lru_victim_matches_scalar(seed):
    rng = random.Random(seed)
    num_sets, num_ways = 64, 12
    policy = LRUPolicy(num_sets, num_ways)
    policy._stamp = [rng.randrange(1000) for _ in range(num_sets * num_ways)]
    rows = np.asarray(policy._stamp, dtype=np.int64).reshape(
        (num_sets, num_ways))
    victims = lru_victim(rows)
    for set_idx in range(num_sets):
        assert int(victims[set_idx]) == policy.victim(set_idx, None)


@pytest.mark.parametrize("seed", SEEDS)
def test_last_occurrence_stamps_matches_sequential(seed):
    rng = random.Random(seed)
    keys = [rng.randrange(20) for _ in range(rng.randrange(0, 400))]
    clock = rng.randrange(10_000)
    # The scalar reference: stamp every touch, keep the last.
    ref, ref_clock = {}, clock
    for key in keys:
        ref_clock += 1
        ref[key] = ref_clock
    uniq, stamps, clock_end = last_occurrence_stamps(
        np.asarray(keys, dtype=np.int64), clock)
    assert clock_end == ref_clock
    assert dict(zip(uniq, stamps)) == ref
    assert all(type(k) is int for k in uniq)  # no np.int64 leakage
    assert all(type(s) is int for s in stamps)


# ----------------------------------------------------------------------
# Column snapshot / load_block round trip keeps the line mirror in sync
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_snapshot_load_block_roundtrip_syncs_mirror(seed):
    rng = random.Random(seed)
    store = CacheStore(8, 4)
    mirror = store.enable_line_mirror()
    src, dst = rng.sample(range(store.size), 2)
    line = HIGH_BASE + rng.getrandbits(40)
    store.reset_slot(src, line, fill_cycle=rng.randrange(100))
    for column in ("dirty", "reused", "is_translation", "is_replay",
                   "is_prefetch", "dead_on_hit"):
        getattr(store, column)[src] = rng.randrange(2)
    store.signature[src] = rng.getrandbits(14)
    store.rrpv[src] = rng.randrange(4)
    block = store.snapshot(src)
    assert isinstance(block, CacheBlock)
    store.load_block(dst, block)
    for column in ("line", "valid", "dirty", "reused", "is_translation",
                   "is_leaf_translation", "is_replay", "is_prefetch",
                   "dead_on_hit", "signature", "rrpv", "fill_cycle"):
        col = getattr(store, column)
        assert col[dst] == col[src], column
    # The incremental int64 mirror followed both writes.
    assert int(mirror[src]) == line
    assert int(mirror[dst]) == line


# ----------------------------------------------------------------------
# Dtype hazards: 64-bit addresses must survive every kernel
# ----------------------------------------------------------------------
def test_as_i64_rejects_float_arrays():
    with pytest.raises(TypeError, match="float"):
        _as_i64(np.asarray([1.0, 2.0]))


def test_as_i64_preserves_bits_above_2_53():
    vals = [(1 << 56) + 3, (1 << 62) + 1]
    out = _as_i64(vals)
    assert out.dtype == np.int64
    assert out.tolist() == vals
    # The hazard being guarded against: float64 cannot hold these.
    assert int(float(vals[0])) != vals[0]


@pytest.mark.parametrize("seed", SEEDS)
def test_probe_lines_exact_above_2_53(seed):
    """Two lines differing only in a low bit, both above 2**53: a float
    round-trip anywhere in the probe would conflate them."""
    rng = random.Random(seed)
    num_sets, num_ways = 16, 4
    store = CacheStore(num_sets, num_ways)
    mirror = StoreMirror(store)
    set_idx = rng.randrange(num_sets)
    base = (HIGH_BASE + (rng.getrandbits(40) << 8))
    resident = base - (base % num_sets) + set_idx
    twin = resident + num_sets  # same set, adjacent line
    store.reset_slot(set_idx * num_ways, resident, fill_cycle=0)
    store.slot_of[resident] = set_idx * num_ways
    hit, slots = mirror.probe([resident, twin])
    assert bool(hit[0]) and int(slots[0]) == set_idx * num_ways
    assert not bool(hit[1])


# ----------------------------------------------------------------------
# DRAM array kernels vs the scalar controller
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_map_lines_matches_scalar_map(seed):
    from repro.memsys.dram import DRAM, map_lines
    from repro.params import DRAMConfig

    rng = random.Random(seed)
    cfg = DRAMConfig(channels=rng.choice((1, 2, 4)),
                     banks_per_channel=rng.choice((8, 16, 32)))
    dram = DRAM(cfg)
    lines = [rng.getrandbits(57) if rng.random() < 0.5
             else HIGH_BASE + rng.getrandbits(40) for _ in range(400)]
    channel, bank_idx, row = map_lines(cfg, lines)
    for i, line in enumerate(lines):
        s_channel, s_bank, s_row = dram._map(line)
        assert int(channel[i]) == s_channel
        assert int(bank_idx[i]) == s_channel * cfg.banks_per_channel + s_bank
        assert int(row[i]) == s_row


@pytest.mark.parametrize("seed", SEEDS)
def test_row_hit_plan_matches_scalar_row_outcomes(seed):
    """Hit/miss per access and final open rows, against DRAM.access.

    The scalar controller is driven request-by-request (its row state is
    order-only -- timing feeds back into latency, never into row
    outcome); the kernel sees the whole sequence at once plus the
    pre-batch open-row snapshot.
    """
    from repro.memsys.dram import DRAM, map_lines, row_hit_plan
    from repro.memsys.request import MemoryRequest
    from repro.params import DRAMConfig

    rng = random.Random(seed)
    cfg = DRAMConfig(channels=rng.choice((1, 2)),
                     banks_per_channel=rng.choice((4, 8)))
    dram = DRAM(cfg)
    lines_per_row = cfg.row_buffer_bytes >> 6
    # Pre-warm: leave some rows open before the batch snapshot.
    pool = [rng.randrange(64) * lines_per_row + rng.randrange(lines_per_row)
            for _ in range(32)]
    for line in rng.choices(pool, k=40):
        dram._raw_access(line, rng.randrange(1000))
    open_before = dram.open_row_array()

    batch = rng.choices(pool, k=200)
    channel, bank_idx, rows = map_lines(cfg, batch)
    hits, new_open = row_hit_plan(open_before, bank_idx, rows)

    snapshot = open_before.copy()
    scalar_hits = []
    for line in batch:
        before = dram.row_hits
        dram._raw_access(line, rng.randrange(1000))
        scalar_hits.append(dram.row_hits > before)
    assert hits.tolist() == scalar_hits
    assert new_open.tolist() == dram.open_row_array().tolist()
    # The input snapshot must not have been mutated.
    assert open_before.tolist() == snapshot.tolist()
    assert not np.shares_memory(open_before, new_open)


# ----------------------------------------------------------------------
# MSHR bulk kernels vs the scalar table
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_mshr_bulk_lookup_matches_lookup(seed):
    from repro.memsys.mshr import MSHR

    rng = random.Random(seed)
    mshr = MSHR(entries=16)
    pool = [rng.getrandbits(57) for _ in range(24)]
    for line in rng.sample(pool, 12):
        mshr.allocate(line, fill_cycle=rng.randrange(2000), now=0)
    now = rng.randrange(2000)
    probes = rng.choices(pool, k=64)
    out = mshr.bulk_lookup(probes, now)
    merges_before = mshr.merges
    for i, line in enumerate(probes):
        expected = mshr.lookup(line, now)
        assert int(out[i]) == (expected if expected is not None else -1)
    # And the bulk form itself was side-effect free.
    assert mshr.merges == merges_before + sum(1 for v in out if v != -1)


@pytest.mark.parametrize("seed", SEEDS)
def test_mshr_bulk_expire_matches_scalar_expire(seed):
    from repro.memsys.mshr import MSHR

    rng = random.Random(seed)
    bulk, scalar = MSHR(entries=16), MSHR(entries=16)
    for _ in range(20):
        line, fill = rng.getrandbits(57), rng.randrange(2000)
        bulk.allocate(line, fill, now=0)
        scalar.allocate(line, fill, now=0)
    now = rng.randrange(2000)
    before = len(scalar._inflight)
    retired = bulk.bulk_expire(now)
    scalar._expire(now)
    assert bulk._inflight == scalar._inflight
    assert retired == before - len(scalar._inflight)
    assert bulk.expirations == scalar.expirations


# ----------------------------------------------------------------------
# Walk-cohort precompute vs sequential first walks
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_walk_entries_batch_matches_sequential_walks(seed):
    """Cohort precompute must leave the allocator in the same state as
    the scalar core walking the same VPNs in first-occurrence order."""
    from repro.cache.batch import first_occurrence_unique
    from repro.vm.page_table import PageTable

    rng = random.Random(seed)
    vpns = [rng.randrange(1 << 20) for _ in range(40)]
    vpns = rng.choices(vpns, k=200)  # heavy duplication

    sequential = PageTable()
    seq_results = {}
    for vpn in vpns:
        pfn, entries = sequential.walk_entries(vpn << PAGE_SHIFT)
        seq_results.setdefault(vpn, (pfn, entries))

    batched = PageTable()
    cache = {}
    cohort = first_occurrence_unique(np.asarray(vpns, dtype=np.int64))
    fresh = batched.walk_entries_batch(cohort.tolist(), cache)

    assert fresh == len(set(vpns))
    assert set(cache) == set(seq_results)
    for vpn, (pfn, entries) in seq_results.items():
        assert cache[vpn] == (pfn, entries)
    # Identical allocation trajectory => identical allocator state.
    assert batched.table_pages == sequential.table_pages
    assert batched.data_pages == sequential.data_pages
    assert batched.allocator._counter == sequential.allocator._counter
    # Already-cached VPNs are pure lookups.
    assert batched.walk_entries_batch(cohort.tolist(), cache) == 0


@pytest.mark.parametrize("seed", SEEDS)
def test_first_occurrence_unique_matches_dict_order(seed):
    from repro.cache.batch import first_occurrence_unique

    rng = random.Random(seed)
    keys = [rng.randrange(64) if rng.random() < 0.8
            else HIGH_BASE + rng.getrandbits(40) for _ in range(300)]
    out = first_occurrence_unique(np.asarray(keys, dtype=np.int64))
    assert out.tolist() == list(dict.fromkeys(keys))
