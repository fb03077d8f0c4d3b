"""The parallel experiment engine: process fan-out, caching, bisection.

The load points here are deliberately small (a few simulated seconds) —
the properties under test are about orchestration, not throughput:
serial/parallel/cached runs must be *identical*, byte for byte.
"""

from __future__ import annotations

import os
import signal
import threading
import time

import pytest

import repro.harness.parallel as parallel
from repro.api import Scenario, throughput_curve
from repro.common.errors import ConfigError, WorkerCrashError
from repro.harness.parallel import ResultCache, SweepExecutor, bisect_peak, code_fingerprint
from repro.harness.scenarios import _peak_throughput, _throughput_latency_curve

POINT_KW = dict(
    sim_time=4.0,
    warmup=1.5,
    request_size=64,
    reply_size=64,
    seed=3,
    crypto="null",
    pipeline=None,
)
BASE_TASK = {"protocol": "marlin", "f": 1, **POINT_KW}
NO_CAP = 1e9  # latency cap no point reaches: the whole grid is evaluated


class TestExecutor:
    def test_jobs_must_be_positive(self):
        with pytest.raises(ConfigError):
            SweepExecutor(jobs=0)

    def test_parallel_curve_identical_to_serial(self):
        counts = [64, 128, 256, 512]
        serial = _throughput_latency_curve("marlin", 1, counts, NO_CAP, **POINT_KW)
        assert len(serial) == len(counts)
        with SweepExecutor(jobs=4) as executor:
            fanned = executor.run_curve(BASE_TASK, counts, NO_CAP)
            # RunResult is a dataclass: == compares every field, floats
            # included, so this asserts bit-identical results.
            assert fanned == serial

            # Early stop: a cap below the first point's latency truncates
            # the wave exactly like the serial sweep does.
            capped = executor.run_curve(BASE_TASK, counts, 0.0)
            assert capped == serial[:1]

    def test_parallel_traces_identical_to_serial(self):
        tasks = [{**BASE_TASK, "clients": clients} for clients in (64, 256)]
        with SweepExecutor(jobs=1) as executor:
            inline = executor.run_tasks(tasks)
        with SweepExecutor(jobs=2) as executor:
            fanned = executor.run_tasks(tasks)
        # Full payload equality: RunResult fields and the SHA-256 of the
        # per-replica commit trace both survive the process boundary.
        assert fanned == inline
        assert all(v["trace_sha256"] for v in inline)


class TestWorkerCrash:
    def test_killed_worker_raises_named_error_and_executor_recovers(self):
        task = {**BASE_TASK, "clients": 64}

        def kill_first_worker(executor: SweepExecutor) -> None:
            # Wait until every worker is up, then kill one mid-task.
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                pool = executor._pool
                pids = list(pool._processes) if pool is not None else []
                if len(pids) == executor.jobs:
                    os.kill(pids[0], signal.SIGKILL)
                    return
                time.sleep(0.005)

        with SweepExecutor(jobs=2) as executor:
            killer = threading.Thread(target=kill_first_worker, args=(executor,))
            killer.start()
            with pytest.raises(WorkerCrashError, match="load_point"):
                executor.run_points([task, task])
            killer.join()
            # The broken pool is gone; the next call gets a fresh one.
            assert executor._pool is None
            recovered = executor.run_points([task])
        with SweepExecutor(jobs=1) as inline:
            assert recovered == inline.run_points([task])


class TestResultCache:
    def test_roundtrip_and_counters(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key_for({"clients": 64, "warmup": 1.5})
        assert cache.get(key) is None
        assert (cache.hits, cache.misses) == (0, 1)
        cache.put(key, {"result": {"clients": 64}, "trace_sha256": "ab"})
        assert cache.get(key) == {"result": {"clients": 64}, "trace_sha256": "ab"}
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.clear() == 1

    def test_key_covers_scenario_and_code(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        base = cache.key_for({"clients": 64})
        assert cache.key_for({"clients": 128}) != base
        # Same scenario, different code: simulate an edited source tree.
        monkeypatch.setattr(parallel, "_FINGERPRINT", "0" * 64)
        assert cache.key_for({"clients": 64}) != base

    def test_fingerprint_is_stable(self):
        assert code_fingerprint() == code_fingerprint()
        assert len(code_fingerprint()) == 64

    def test_second_sweep_served_from_cache(self, tmp_path):
        counts = [64, 128]
        cache = ResultCache(tmp_path)
        with SweepExecutor(jobs=1, cache=cache) as executor:
            first = executor.run_curve(BASE_TASK, counts, NO_CAP)
        assert (cache.hits, cache.misses) == (0, len(counts))

        warm = ResultCache(tmp_path)
        with SweepExecutor(jobs=1, cache=warm) as executor:
            second = executor.run_curve(BASE_TASK, counts, NO_CAP)
        assert (warm.hits, warm.misses) == (len(counts), 0)
        assert second == first

    def test_scenario_change_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        with SweepExecutor(jobs=1, cache=cache) as executor:
            executor.run_curve(BASE_TASK, [64], NO_CAP)
            executor.run_curve({**BASE_TASK, "seed": 4}, [64], NO_CAP)
        assert (cache.hits, cache.misses) == (0, 2)

    def test_code_change_invalidates(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        with SweepExecutor(jobs=1, cache=cache) as executor:
            executor.run_curve(BASE_TASK, [64], NO_CAP)
            monkeypatch.setattr(parallel, "_FINGERPRINT", "f" * 64)
            executor.run_curve(BASE_TASK, [64], NO_CAP)
        # The second run could not reuse the first run's entry.
        assert (cache.hits, cache.misses) == (0, 2)

    def test_facade_curve_with_cache(self, tmp_path):
        scenario = Scenario(
            protocol="marlin", f=1, seed=3, sim_time=4.0, warmup=1.5,
            request_size=64, reply_size=64,
        )
        cold = throughput_curve(
            scenario, [64, 128], latency_cap=NO_CAP,
            use_cache=True, cache_dir=tmp_path,
        )
        warm = throughput_curve(
            scenario, [64, 128], latency_cap=NO_CAP,
            use_cache=True, cache_dir=tmp_path,
        )
        plain = throughput_curve(scenario, [64, 128], latency_cap=NO_CAP)
        assert cold == warm == plain


class TestBisect:
    def test_bisect_peak_matches_linear_sweep(self):
        counts = [32, 128, 512, 2048, 8192]
        # Establish latencies, then set the cap so the crossing happens
        # mid-grid — the interesting case for the bisection.
        full = _throughput_latency_curve("marlin", 1, counts, NO_CAP, **POINT_KW)
        latencies = [p.mean_latency for p in full]
        assert latencies == sorted(latencies), "closed-loop latency must be monotone"
        cap = (latencies[2] + latencies[3]) / 2

        peak_sweep, curve_sweep = _peak_throughput(
            "marlin", 1, counts, cap, strategy="sweep", **POINT_KW
        )
        peak_bisect, curve_bisect = _peak_throughput(
            "marlin", 1, counts, cap, strategy="bisect", **POINT_KW
        )
        assert peak_bisect == peak_sweep
        # Both curves end at the same first-over-cap point, and every
        # point the bisection did evaluate matches the sweep's value.
        assert curve_bisect[-1] == curve_sweep[-1]
        sweep_by_clients = {p.clients: p for p in curve_sweep}
        for point in curve_bisect:
            assert point == sweep_by_clients[point.clients]

    def test_bisect_all_points_under_cap(self):
        counts = [32, 64]
        with SweepExecutor(jobs=1) as executor:
            curve = bisect_peak(executor, BASE_TASK, counts, NO_CAP)
        serial = _throughput_latency_curve("marlin", 1, counts, NO_CAP, **POINT_KW)
        assert curve == serial

    def test_bisect_first_point_over_cap(self):
        with SweepExecutor(jobs=1) as executor:
            curve = bisect_peak(executor, BASE_TASK, [64, 128, 256], 0.0)
        assert len(curve) == 1
        assert curve[0].clients == 64

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ConfigError):
            _peak_throughput("marlin", 1, [32], 1.0, strategy="golden", **POINT_KW)
