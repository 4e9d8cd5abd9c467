"""The benchmark's workloads.

Every workload is a closed loop on one thread: one client issues the
next call only after the previous one returns.  ``miss-heavy`` and
``hit-heavy`` drive ``repro.api.run`` over a fixed run matrix in whole
passes; ``figure-sweep`` drives an inline ``SweepService`` over a fresh
``JobStore`` in whole cycles.

Every timed interval is measured with :class:`clock.Stopwatch`, so
host seconds are rescaled to a fixed reference speed.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import statistics
import tempfile
import time
from pathlib import Path
from typing import Dict, List

from clock import Stopwatch
from layers import SpanRecorder

SCALE = 16
#: Trace seed of the simulated end-to-end metrics.  Their spread across
#: trace seeds is input variance, not noise, so they are computed at one
#: fixed seed -- the seed figure jobs run at -- and repeat exactly.
MODEL_SEED = 1
#: Paper Fig 14: +5.1% geometric-mean speedup of the full stack.
PAPER_FIG14_GMEAN = 1.051
#: Each cold job is resubmitted this many times per cycle.
STORE_HIT_REPEATS = 20
#: Share of ``--seconds`` an api.run workload times its loop for ...
LOOP_SHARE = 2 / 3
#: ... before this many figure-sweep cycles (about the rest of the time).
#: A fixed count keeps the work, and so the peak RSS, the same each run.
TAIL_CYCLES = 4
#: Tiny runs that finish lazy initialisation during set-up.
WARMUP_RUN = dict(instructions=1_000, warmup=200)

_MODEL_UNITS = {"ipc_gmean": "instr/cycle", "full_speedup_gmean": "ratio",
                "stlb_mpki_rel_err": "ratio"}
_SERVICE_UNITS = {"service.job_wait_s_p50": "s", "service.job_run_s_p50": "s",
                  "service.executed": "count", "service.store_hits": "count",
                  "service.dedup_hits": "count", "service.store.bytes": "bytes"}


class Ledger:
    """Operations attempted, and those that failed or gave wrong output."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def record(self, what: str, problems) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)


def _canonical(payload) -> str:
    """What the store writes, so cold and store-hit payloads compare."""
    return json.dumps(payload, sort_keys=True)


def _numbers(value):
    if isinstance(value, dict):
        for v in value.values():
            yield from _numbers(v)
    elif isinstance(value, list):
        for v in value:
            yield from _numbers(v)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield value


def run_problems(summary: Dict) -> List[str]:
    """Consistency checks on one run payload (a ``RunSummary`` dict)."""
    problems = []
    instructions, cycles = summary["instructions"], summary["cycles"]
    if instructions <= 0 or cycles <= 0:
        problems.append("non-positive instructions or cycles")
    elif summary["metrics"]["ipc"] != instructions / cycles:
        problems.append("ipc != instructions / cycles")
    if any(v < 0 or v != v for v in _numbers(summary)):
        problems.append("negative or NaN counter")
    return problems


def model_metrics(prog, summaries: Dict) -> Dict:
    """``ipc_gmean``, ``full_speedup_gmean``, ``stlb_mpki_rel_err`` from
    ``{(benchmark, config_label): RunSummary dict}``; ``compute`` has no
    paper reference and drops out of the error."""
    reference = prog.registry.TABLE2_REFERENCE
    gmean = prog.report.geometric_mean
    benches = sorted({b for b, _ in summaries})
    errors = [abs(summaries[(b, "none")]["metrics"]["stlb_mpki"]
                  - reference[b]["stlb"]) / reference[b]["stlb"]
              for b in benches if b in reference]
    return {
        "ipc_gmean": gmean([s["instructions"] / s["cycles"]
                            for s in summaries.values()]),
        "full_speedup_gmean": gmean([summaries[(b, "none")]["cycles"]
                                     / summaries[(b, "full")]["cycles"]
                                     for b in benches]),
        "stlb_mpki_rel_err": sum(errors) / len(errors),
    }


def simulated_stats(records) -> Dict:
    """Per-layer simulated stats pooled over ``(summary, extras)`` pairs
    from untraced runs (``extras`` holds what a summary lacks)."""
    instr = sum(s["instructions"] for s, _ in records)
    walks = sum(s["walks"] for s, _ in records)
    levels = [s["levels"][lvl] for s, _ in records
              for lvl in ("l1d", "l2c", "llc")]
    pf = [s["levels"][lvl] for s, _ in records for lvl in ("l2c", "llc")]
    fills = sum(lv["prefetch_fills"] for lv in pf)
    dram = sum(x["dram_accesses"] for _, x in records)
    n = len(records)

    def cpi(category):
        return sum(s["stalls"][category]["total"] for s, _ in records) / instr

    def mean(fn):
        return sum(fn(s) for s, _ in records) / n

    return {
        "core.stall_translation_cpi": (cpi("translation"), "cycles/instr"),
        "core.stall_replay_cpi": (cpi("replay"), "cycles/instr"),
        "core.stall_non_replay_cpi": (cpi("non_replay"), "cycles/instr"),
        "vm.stlb_mpki": (mean(lambda s: s["metrics"]["stlb_mpki"]), "mpki"),
        "vm.walk_cycles_avg": (
            sum(s["walk_cycles_total"] for s, _ in records) / max(1, walks),
            "cycles"),
        "vm.pte_reads_per_walk": (
            sum(x["pte_reads"] for _, x in records) / max(1, walks),
            "reads/walk"),
        "cache.l2c.replay_mpki": (
            mean(lambda s: s["mpki"]["l2c"]["replay"]), "mpki"),
        "cache.llc.replay_mpki": (
            mean(lambda s: s["mpki"]["llc"]["replay"]), "mpki"),
        "cache.llc.ptl1_mpki": (
            mean(lambda s: s["mpki"]["llc"]["ptl1"]), "mpki"),
        "memsys.mshr.merges": (
            sum(lv["mshr_merges"] for lv in levels), "count"),
        "memsys.mshr.admission_stall_cycles": (
            sum(lv["admission_stall_cycles"] for lv in levels), "cycles"),
        "memsys.dram.row_hit_ratio": (
            sum(x["dram_row_hits"] for _, x in records) / max(1, dram),
            "ratio"),
        "prefetch.atp.triggers": (
            sum(s["atp_triggered_l2c"] + s["atp_triggered_llc"]
                for s, _ in records), "count"),
        "prefetch.atp.useful_ratio": (
            sum(lv["prefetch_useful"] for lv in pf) / fills if fills else 0.0,
            "ratio"),
        "prefetch.tempo.triggers": (
            sum(s["tempo_triggered"] for s, _ in records), "count"),
    }


def service_stats(service) -> Dict:
    """Service telemetry: job latencies from its job records, counters
    from its registry, bytes from its store directory."""
    jobs = [j for j in service.jobs() if j.started_mono is not None
            and j.finished_mono is not None]
    store_bytes = sum(p.stat().st_size for p in Path(service.store.dir)
                      .rglob("*.json"))

    def p50(values):
        return statistics.median(values) if values else 0.0

    metrics = service.metrics
    values = {
        "service.job_wait_s_p50": p50([j.started_mono - j.created_mono
                                       for j in jobs]),
        "service.job_run_s_p50": p50([j.finished_mono - j.started_mono
                                      for j in jobs]),
        "service.executed": metrics.executed,
        "service.store_hits": metrics.store_hits,
        "service.dedup_hits": metrics.dedup_hits,
        "service.store.bytes": store_bytes,
    }
    return {name: (value, _SERVICE_UNITS[name])
            for name, value in values.items()}


def job_problems(job) -> List[str]:
    if job.status.value != "done":
        return [f"ended {job.status.value}: {job.error}"]
    return []


async def store_hits(service, cold_jobs, ledger: Ledger) -> List[float]:
    """Resubmit every cold job's spec :data:`STORE_HIT_REPEATS` times;
    each must be served from the store with a payload equal to the cold
    one.  Returns each hit's s at reference speed (a round of hits
    shares its probes: one hit is far shorter than a probe)."""
    times = []
    for _ in range(STORE_HIT_REPEATS):
        watch, round_s = Stopwatch(), []
        for cold in cold_jobs:
            start = time.perf_counter()
            hit = await service.submit_spec(cold.spec)
            round_s.append(time.perf_counter() - start)
            problems = []
            if hit.source != "store":
                problems.append(f"served from {hit.source}, not the store")
            elif _canonical(hit.payload) != _canonical(cold.payload):
                problems.append("store-hit payload differs from cold payload")
            ledger.record(f"resubmit {cold.spec.kind} {cold.digest[:8]}",
                          problems)
        watch.stop()
        times += [t * watch.scale for t in round_s]
    return times


def run_metrics(run_s: List[float], accesses: int) -> Dict:
    """``sim_accesses_per_s`` and ``run_s_p50`` from the s of every run
    and the demand accesses they simulated."""
    return {"sim_accesses_per_s": (accesses / sum(run_s), "1/s"),
            "run_s_p50": (statistics.median(run_s), "s")}


class Workload:
    """Common surface: ``prepare`` (set-up), ``measure`` (untraced
    end-to-end metrics) and ``trace`` (per-layer metrics).  Subclasses
    give ``trace`` its ``unit`` of work and the ``layer_records`` its
    simulated stats are pooled from."""

    name = ""

    def __init__(self, prog, tmp: Path):
        self.prog = prog
        self.tmp = tmp
        self._accesses = {}
        #: Every payload made in this run, by what it is the result of.
        self._payloads = {}

    def same(self, key, payload) -> List[str]:
        """The first payload for ``key`` is kept; a later one must equal
        it, whatever made it: direct run, sweep child, traced or not."""
        first = self._payloads.setdefault(key, payload)
        if first is not payload and _canonical(first) != _canonical(payload):
            return [f"differs from the same {key} made earlier"]
        return []

    def new_service(self, recorder=None):
        """An inline service over a fresh store (traced when given a
        recorder)."""
        svc_mod = self.prog.service
        service = svc_mod.SweepService(
            store=svc_mod.JobStore(root=tempfile.mkdtemp(dir=self.tmp)),
            workers=0)
        if recorder is not None:
            recorder.instrument_service(service)
        return service

    def prepare(self) -> None:
        """Lazy initialisation that would otherwise land in the first
        timed call: config builds, runner install, code fingerprint and
        one tiny run per config."""
        api = self.prog.api
        api.configure_parallel(jobs=1, use_cache=False)
        self.prog.parallel.code_fingerprint()
        self.configs = self.build_configs()
        for config in self.configs.values():
            api.run(self.benchmarks[0], config=config, **WARMUP_RUN)

    def build_configs(self) -> Dict:
        api = self.prog.api
        configs = {"none": api.build_config(SCALE, enhancements="none"),
                   "full": api.build_config(SCALE, enhancements="full")}
        if "full-hawkeye" in self.config_labels:
            full = configs["full"]
            configs["full-hawkeye"] = full.with_(llc=dataclasses.replace(
                full.llc, replacement="hawkeye"))
        return configs

    def accesses(self, benchmark: str, seed: int) -> int:
        """Demand loads and stores in one simulated trace (warmup+ROI)."""
        cache = self._accesses
        if (benchmark, seed) not in cache:
            trace = self.prog.registry.make_trace(
                benchmark, self.instructions + self.warmup, scale=SCALE,
                seed=seed)
            cache[(benchmark, seed)] = trace.num_loads + trace.num_stores
        return cache[(benchmark, seed)]

    def run_direct(self, benchmark: str, label: str, seed: int,
                   ledger: Ledger):
        """One untraced, checked ``api.run``; returns (its s at reference
        speed, summary, extras).  A run that raises ends the benchmark
        run."""
        watch = Stopwatch()
        result = self.prog.api.run(
            benchmark, config=self.configs[label],
            instructions=self.instructions, warmup=self.warmup,
            scale=SCALE, seed=seed)
        seconds = watch.stop()
        summary = self.prog.parallel.RunSummary.from_run(
            result, seed=seed).to_dict()
        h = result.hierarchy
        extras = {"pte_reads": h.mmu.walker.pte_reads,
                  "dram_accesses": h.dram.accesses,
                  "dram_row_hits": h.dram.row_hits}
        ledger.record(f"api.run {benchmark}/{label} seed {seed}",
                      run_problems(summary)
                      + self.same((benchmark, label, seed), summary))
        return seconds, summary, extras

    @property
    def matrix(self) -> List:
        return [(bench, label) for bench in self.benchmarks
                for label in self.config_labels]

    def _pass(self, seed: int, ledger: Ledger) -> Dict:
        """One ``run_direct`` per benchmark x config."""
        return {key: self.run_direct(*key, seed, ledger)
                for key in self.matrix}

    def trace(self, seed: int, ledger: Ledger) -> Dict:
        """Per-layer metrics: one untraced ``unit`` of work, then the same
        traced; every payload of the traced one must equal the untraced
        one's."""
        watch = Stopwatch()
        plain = self.unit(seed, ledger)
        plain_s = watch.stop()
        recorder = SpanRecorder()
        try:
            recorder.instrument_program(self.prog.runner, self.prog.api,
                                        self.prog.recall)
            watch = Stopwatch()
            self.unit(seed, ledger, recorder)
            traced_s = watch.stop()
        finally:
            recorder.close()
        out = recorder.metrics(recorder.calls["uncore.hierarchy"])
        out["trace_overhead_ratio"] = (traced_s / plain_s, "ratio")
        out.update(simulated_stats(self.layer_records(plain, seed, ledger)))
        out.update(self.service_telemetry(plain))
        return out

    def model(self, ledger: Ledger) -> Dict:
        """The simulated end-to-end metrics at :data:`MODEL_SEED`, from
        the payloads this run made at it, running the missing ones."""
        summaries = {}
        for bench, label in self.matrix:
            if (bench, label, MODEL_SEED) not in self._payloads:
                self.run_direct(bench, label, MODEL_SEED, ledger)
            summaries[(bench, label)] = self._payloads[
                (bench, label, MODEL_SEED)]
        return {name: (value, _MODEL_UNITS[name]) for name, value
                in model_metrics(self.prog, summaries).items()}


# ----------------------------------------------------------------------
# Service workload
# ----------------------------------------------------------------------
class FigureSweep(Workload):
    """Whole cycles of cold figures, a sweep with a duplicate submit,
    then every cold job resubmitted, each over a fresh store."""

    name = "figure-sweep"
    #: One benchmark per STLB-MPKI category (Low, Medium, High).
    benchmarks = ("xalancbmk", "canneal", "pr")
    config_labels = ("none", "full")
    figures = ("fig14", "fig5")
    instructions = 8_000
    warmup = 2_000

    def prepare(self) -> None:
        """The common set-up, plus one tiny job of each figure and its
        store hit on a throwaway store: the figure harness and the
        service's paths initialise lazily on first use."""
        super().prepare()
        asyncio.run(self._warm_service())

    async def _warm_service(self) -> None:
        svc_mod = self.prog.service
        service = self.new_service()
        try:
            await service.start()
            for fig in self.figures:
                spec = svc_mod.JobSpec.make(
                    "figure", figure=fig, benchmarks=[self.benchmarks[0]],
                    **WARMUP_RUN)
                job = await service.submit_spec(spec)
                await service.wait(job)
                problems = job_problems(job)
                if problems:
                    raise RuntimeError(f"set-up {fig} job: {problems}")
                await service.submit_spec(spec)
        finally:
            await service.close()

    def _figure_problems(self, job) -> List[str]:
        result = job.payload["result"]
        if job.spec.param("figure") == "fig5":
            # At this short ROI the LLC may record no recall yet for the
            # low/medium benchmarks, so samples are required per
            # benchmark; every row must still carry its CDF.
            data = result["data"]
            problems = [f"fig5 row {row[:2]}: empty recall CDF"
                        for row in result["rows"] if len(row) <= 2]
            problems += [f"fig5 {b}: no recall samples"
                         for b in self.benchmarks
                         if sum(d["samples"] for d in data[b].values()) <= 0]
            return problems
        speedups = [v for row in result["rows"] for v in row[1:]]
        if not speedups or any(v <= 0 for v in speedups):
            return ["fig14: non-positive speedup"]
        return []

    def _record_job(self, job, ledger: Ledger, what: str, check) -> None:
        problems = job_problems(job)
        if not problems:
            problems = check(job) + self.same(job.digest, job.payload)
        ledger.record(what, problems)

    async def _cycle(self, seed: int, ledger: Ledger, recorder=None):
        svc_mod = self.prog.service
        service = self.new_service(recorder)
        cycle = {"figure_s": 0.0}
        try:
            await service.start()
            cold = []
            for fig in self.figures:
                spec = svc_mod.JobSpec.make(
                    "figure", figure=fig, benchmarks=list(self.benchmarks),
                    instructions=self.instructions, warmup=self.warmup)
                watch = Stopwatch()
                job = await service.submit_spec(spec)
                await service.wait(job)
                cycle["figure_s"] += watch.stop()
                self._record_job(job, ledger, f"figure {fig}",
                                 self._figure_problems)
                cold.append(job)

            spec = svc_mod.JobSpec.make(
                "sweep", runs=[{"benchmark": b, "enhancements": e}
                               for b, e in self.matrix],
                instructions=self.instructions, warmup=self.warmup,
                scale=SCALE, seed=seed)
            watch = Stopwatch()
            sweep = await service.submit_spec(spec)
            duplicate = await service.submit_spec(spec)
            await service.wait(sweep)
            cycle["sweep_s"] = watch.stop()
            self._record_job(sweep, ledger, "sweep", lambda job: [])
            ledger.record("duplicate sweep submit",
                          [] if duplicate is sweep
                          and service.metrics.dedup_hits == 1
                          else ["not attached to the in-flight sweep"])
            # A child's job record has its host s; the sweep's probes
            # rescale it.
            cycle["run_s"] = []
            for child in sweep.children:
                key = (child.spec.param("benchmark"),
                       child.spec.param("enhancements"))
                self._record_job(
                    child, ledger, f"sweep child {key}",
                    lambda job: run_problems(job.payload)
                    + self.same((*key, seed), job.payload))
                cycle["run_s"].append(watch.scale * (
                    child.finished_mono - child.started_mono))
            cycle["accesses"] = sum(self.accesses(b, seed)
                                    for b, _ in self.matrix)
            cold += [sweep] + sweep.children
            cycle["hit_s"] = await store_hits(service, cold, ledger)
            cycle["service"] = service_stats(service)
        finally:
            await service.close()
        return cycle

    def cycle(self, seed: int, ledger: Ledger, recorder=None) -> Dict:
        return asyncio.run(self._cycle(seed, ledger, recorder))

    @staticmethod
    def cycle_metrics(cycles) -> Dict:
        """The figure, sweep and store-hit metrics over ``cycles``."""
        return {
            "cold_figure_s": (
                statistics.fmean(c["figure_s"] for c in cycles), "s"),
            "sweep_runs_per_s": (sum(len(c["run_s"]) for c in cycles)
                                 / sum(c["sweep_s"] for c in cycles), "1/s"),
            "store_hit_s_p50": (statistics.median(
                t for c in cycles for t in c["hit_s"]), "s"),
        }

    def measure(self, seed: int, seconds: float, ledger: Ledger) -> Dict:
        cycles = []
        start = time.perf_counter()
        while not cycles or time.perf_counter() - start < seconds:
            cycles.append(self.cycle(seed, ledger))
        out = run_metrics([t for c in cycles for t in c["run_s"]],
                          sum(c["accesses"] for c in cycles))
        out.update(self.cycle_metrics(cycles))
        out.update(self.model(ledger))
        return out

    def unit(self, seed: int, ledger: Ledger, recorder=None):
        return self.cycle(seed, ledger, recorder)

    def layer_records(self, unit, seed: int, ledger: Ledger) -> List:
        # The service stores summaries only; the layer stats come from
        # the same runs made directly, which must equal the payloads.
        return [(c[1], c[2]) for c in self._pass(seed, ledger).values()]

    def service_telemetry(self, unit) -> Dict:
        return unit["service"]


# ----------------------------------------------------------------------
# api.run workloads
# ----------------------------------------------------------------------
class ApiWorkload(Workload):
    """Whole passes of ``api.run`` over benchmarks x configs, then
    :data:`TAIL_CYCLES` figure-sweep cycles: every workload prints every
    end-to-end metric, and the figure and store metrics are the
    figure-sweep cycle's wherever they are printed."""

    def prepare(self) -> None:
        super().prepare()
        self.tail = FigureSweep(self.prog, self.tmp)
        self.tail.prepare()

    def measure(self, seed: int, seconds: float, ledger: Ledger) -> Dict:
        run_s, passes = [], 0
        start = time.perf_counter()
        while not passes or (time.perf_counter() - start
                             < seconds * LOOP_SHARE):
            run_s += [call[0] for call in self._pass(seed, ledger).values()]
            passes += 1
        out = run_metrics(run_s, passes * sum(
            self.accesses(bench, seed) for bench, _ in self.matrix))
        out.update(FigureSweep.cycle_metrics(
            [self.tail.cycle(seed, ledger) for _ in range(TAIL_CYCLES)]))
        out.update(self.model(ledger))
        return out

    def unit(self, seed: int, ledger: Ledger, recorder=None):
        """One pass (the recorder wraps the run module, not the calls)."""
        return self._pass(seed, ledger)

    def layer_records(self, unit, seed: int, ledger: Ledger) -> List:
        return [(call[1], call[2]) for call in unit.values()]

    def service_telemetry(self, unit) -> Dict:
        # A traced pass uses no service.
        return {name: (0, u) for name, u in _SERVICE_UNITS.items()}


class MissHeavy(ApiWorkload):
    name = "miss-heavy"
    benchmarks = ("pr", "cc", "radii", "mcf", "canneal")
    config_labels = ("none", "full", "full-hawkeye")
    instructions = 10_000
    warmup = 3_000


class HitHeavy(ApiWorkload):
    name = "hit-heavy"
    benchmarks = ("compute", "xalancbmk")
    config_labels = ("none", "full")
    instructions = 40_000
    warmup = 10_000


WORKLOADS = {w.name: w for w in (MissHeavy, HitHeavy, FigureSweep)}
