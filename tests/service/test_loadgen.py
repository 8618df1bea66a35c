"""Open-loop load generation and saturation-knee analysis."""

import asyncio

import pytest

from repro.service import (
    LoadReport,
    OpenLoopLoadGenerator,
    ServiceConfig,
    SsiQueryService,
    find_knee,
    run_query,
    slim_population,
    standard_mix,
)


def run(coro):
    return asyncio.run(coro)


class TestOpenLoop:
    def test_run_accounts_every_arrival(self):
        async def scenario():
            population = slim_population(60)
            service = SsiQueryService(
                population,
                ServiceConfig(cache_capacity=8, record_snapshots=True),
            )
            service.start()
            generator = OpenLoopLoadGenerator(service, standard_mix(), seed=3)
            report = await generator.run(
                rate=200.0, duration_s=0.2, keep_results=True
            )
            await service.stop()
            return population, service, report

        population, service, report = run(scenario())
        assert report.offered > 0
        assert report.completed + report.shed + report.errors == report.offered
        assert report.errors == 0
        assert report.latency_ms.count == report.completed
        assert sum(report.offered_by_class.values()) == report.offered
        # Stable population + warm cache: repeats hit.
        assert report.cache_hits > 0
        # Every kept result reproduces bit-identically.
        for served in report.results:
            if served.snapshot is None:
                continue
            reference = run_query(
                served.descriptor,
                served.snapshot.nodes,
                population.fleet,
                served.seed,
                service.config.domain,
            )
            assert reference.result == served.result

    def test_open_loop_pressure_sheds(self):
        async def scenario():
            population = slim_population(150)
            service = SsiQueryService(
                population,
                ServiceConfig(max_queue_depth=2, cache_capacity=0),
            )
            service.start()
            generator = OpenLoopLoadGenerator(service, standard_mix(), seed=1)
            report = await generator.run(rate=400.0, duration_s=0.15)
            await service.stop()
            return report

        report = run(scenario())
        # An open-loop generator keeps offering at rate even though the
        # service is saturated — admission control must shed.
        assert report.shed > 0
        assert report.completed + report.shed + report.errors == report.offered

    def test_rejects_nonpositive_rate(self):
        async def scenario():
            service = SsiQueryService(slim_population(5))
            generator = OpenLoopLoadGenerator(service, standard_mix())
            with pytest.raises(ValueError):
                await generator.run(rate=0.0, duration_s=0.1)

        run(scenario())


class TestKnee:
    def _report(self, rate, offered, completed):
        report = LoadReport(rate=rate, duration_s=1.0)
        report.offered = offered
        report.completed = completed
        return report

    def test_knee_is_highest_keeping_up(self):
        reports = [
            self._report(1.0, 10, 10),
            self._report(2.0, 20, 19),
            self._report(4.0, 40, 38),
            self._report(8.0, 80, 41),
            self._report(16.0, 160, 44),
        ]
        knee = find_knee(reports)
        assert knee["knee_rate_qps"] == 4.0
        assert knee["saturated_rates"] == [8.0, 16.0]
        assert knee["knee_efficiency"] >= 0.9

    def test_all_saturated_falls_back_to_lowest(self):
        reports = [self._report(4.0, 40, 10), self._report(8.0, 80, 11)]
        knee = find_knee(reports)
        assert knee["knee_rate_qps"] == 4.0
        assert knee["saturated_rates"] == [4.0, 8.0]

    def test_empty_sweep_rejected(self):
        with pytest.raises(ValueError):
            find_knee([])
