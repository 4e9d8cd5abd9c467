"""Recall-distance tracking is opt-in (``SimConfig.track_recall``).

Only the recall figures (Figs 5/7/18) read recall data, so every other
run skips the trackers.  The trackers observe evictions and accesses
without feeding back into the timing model: turning them on must change
nothing but the ``recall`` block of a run's summary.
"""

import asyncio

import pytest

from repro import api
from repro.experiments.figures import (fig5_recall_translations,
                                       fig7_recall_replays,
                                       fig18_stlb_recall)
from repro.experiments.parallel import RunSummary
from repro.params import default_config
from repro.service import JobStore, SweepService

SHORT = dict(instructions=4_000, warmup=1_000)


def _samples(summary: dict) -> int:
    return sum(data["samples"] for kinds in summary["recall"].values()
               for data in kinds.values())


def test_default_config_does_not_track_recall():
    assert default_config().track_recall is False


def test_default_run_builds_no_recall_trackers():
    result = api.run("pr", **SHORT)
    h = result.hierarchy
    assert h.mmu.stlb.recall is None
    for cache in (h.l1d, h.l2c, h.llc):
        assert cache.recall_translation is None
        assert cache.recall_replay is None
    assert _samples(RunSummary.from_run(result).to_dict()) == 0


@pytest.mark.parametrize("enhancements", ["none", "full"])
@pytest.mark.parametrize("name", ["pr", "canneal"])
def test_recall_tracking_changes_only_recall(name, enhancements):
    base = api.build_config(enhancements=enhancements)
    off = RunSummary.from_run(
        api.run(name, config=base, **SHORT)).to_dict()
    on = RunSummary.from_run(
        api.run(name, config=base.with_(track_recall=True),
                **SHORT)).to_dict()
    assert _samples(on) > 0
    on.pop("recall")
    off.pop("recall")
    assert on == off


@pytest.mark.parametrize("fig", [fig5_recall_translations,
                                 fig7_recall_replays, fig18_stlb_recall])
def test_recall_figures_request_tracking(fig):
    """The figures ask for recall themselves: the default config (which
    tracks nothing) still yields a CDF on every row."""
    res = fig(benchmarks=["pr"], **SHORT)
    assert res.rows
    for row in res.rows:
        cdf = row[2:]
        assert cdf and cdf[-1] in (0.0, pytest.approx(1.0))
    assert sum(d["samples"] for d in res.data["pr"].values()) > 0


def test_service_run_job_can_request_recall(tmp_path):
    service = SweepService(store=JobStore(root=tmp_path), workers=0)

    async def body():
        await service.start()
        try:
            on = await service.submit("run", benchmark="pr",
                                      config={"track_recall": True},
                                      **SHORT)
            off = await service.submit("run", benchmark="pr", **SHORT)
            await service.wait(on)
            await service.wait(off)
        finally:
            await service.close()
        return on, off

    on, off = asyncio.run(body())
    assert on.digest != off.digest
    assert _samples(on.payload) > 0
    assert _samples(off.payload) == 0
    on.payload.pop("recall")
    off.payload.pop("recall")
    assert on.payload == off.payload
