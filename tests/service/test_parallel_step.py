"""Parallel scoring: the bit-identity contract under stress.

The runner's ``step_workers`` thread pool scores a tick's GP chunks
concurrently and serves as the ``score_executor`` of sharded-scoring
optimizers.  Its acceptance property: for any ``step_workers``, every
campaign's results, RNG stream and journal bytes are **bitwise identical**
to ``step_workers=1`` — worker count may only change wall-clock time.
Scoring results merge in chunk/shard order, so nothing observable depends
on thread timing.

The suites here drive that contract through mixed RF/GP/refresh cohorts,
shared worker pools, more or fewer workers than scoring chunks, a
Hypothesis sweep over worker counts, injected faults under quarantine, the
elastic runner and a scoring failure's error context.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import (
    assert_results_identical,
    make_gp_search,
    make_refresh_search,
    make_service_search,
    make_service_space,
    service_run_function,
)
from repro.core.surrogate import RandomForestSurrogate
from repro.core.search import CBOSearch
from repro.service.evaluator import SharedWorkerPool
from repro.service.runner import (
    CampaignRunner,
    CampaignSpec,
    ElasticCampaignRunner,
)

BUDGET = dict(max_time=700.0, max_evaluations=26)


def make_mixed_specs(n=6, space=None, budget=BUDGET, **spec_kwargs):
    """An n-campaign cohort cycling through the RF/GP/refresh families."""
    space = space if space is not None else make_service_space()
    factories = (make_service_search, make_gp_search, make_refresh_search)
    return [
        CampaignSpec(
            search=factories[i % 3](seed=100 + i, space=space),
            label=f"c{i}",
            **budget,
            **spec_kwargs,
        )
        for i in range(n)
    ]


def rng_state(spec):
    return spec.search.optimizer.rng.bit_generator.state


def journal_bytes(directory):
    """Every journal file's raw bytes, keyed by name (order-independent)."""
    return {
        path.name: path.read_bytes() for path in sorted(directory.iterdir())
    }


class TestThreadBackendBitIdentity:
    @pytest.mark.parametrize("step_workers", [2, 4])
    def test_mixed_cohort_matches_serial(self, step_workers):
        serial_specs = make_mixed_specs()
        serial = CampaignRunner(serial_specs, step_workers=1).run()
        parallel_specs = make_mixed_specs()
        parallel = CampaignRunner(
            parallel_specs, step_workers=step_workers
        ).run()
        for a, b in zip(serial, parallel):
            assert_results_identical(a, b)
        # The RNG streams drained identically: same draws, same order.
        for a, b in zip(serial_specs, parallel_specs):
            assert rng_state(a) == rng_state(b)

    def test_journals_are_byte_identical(self, tmp_path):
        serial = CampaignRunner(
            make_mixed_specs(n=3),
            step_workers=1,
        ).run()
        specs = make_mixed_specs(n=3)
        for i, spec in enumerate(specs):
            spec.journal_dir = tmp_path / f"c{i}"
        parallel = CampaignRunner(specs, step_workers=4).run()
        for a, b in zip(serial, parallel):
            assert_results_identical(a, b)
        reference = CampaignRunner(
            make_mixed_specs(n=3), step_workers=1
        )
        for i, spec in enumerate(reference.specs):
            spec.journal_dir = tmp_path / f"ref{i}"
        reference.run()
        for i in range(3):
            assert journal_bytes(tmp_path / f"c{i}") == journal_bytes(
                tmp_path / f"ref{i}"
            )

    def test_shared_pool_cohort_matches_serial(self):
        # Campaigns sharing one SharedWorkerPool compete for workers on one
        # clock; parallel scoring must not perturb their event interleaving.
        # Identity target: the same shared-pool cohort run serially.
        def shared_specs():
            pool = SharedWorkerPool(num_workers=8)
            specs = [
                CampaignSpec(
                    search=make_service_search(
                        seed=10 + i,
                        evaluator_factory=pool.evaluator_factory(),
                    ),
                    label=f"s{i}",
                    **BUDGET,
                )
                for i in range(4)
            ]
            # Two private-pool campaigns interleaved with the shared four.
            specs.insert(1, CampaignSpec(search=make_service_search(seed=50), **BUDGET))
            specs.append(CampaignSpec(search=make_gp_search(seed=51), **BUDGET))
            return specs

        # Constructed fresh per run: pools and searches are stateful.
        serial = CampaignRunner(shared_specs(), step_workers=1).run()
        parallel = CampaignRunner(shared_specs(), step_workers=4).run()
        for a, b in zip(serial, parallel):
            assert_results_identical(a, b)

    def test_pooled_gp_chunks_and_score_shards_match_serial(self):
        # Both uses of the pool: six equal-shape GP pools fuse into several
        # cache-sized chunks (budget shrunk so two members fill one) that
        # score concurrently, and two odd-sized pools score solo, their
        # score shards mapped over the runner's pool.
        def run(step_workers):
            space = make_service_space()
            specs = [
                CampaignSpec(
                    search=make_gp_search(
                        200 + i,
                        space,
                        num_candidates=32 if i < 6 else 30 + i,
                        score_shards=2,
                    ),
                    **BUDGET,
                )
                for i in range(8)
            ]
            runner = CampaignRunner(specs, step_workers=step_workers)
            runner.gp_predict_chunk_elements = 2000
            return runner, runner.run(), specs

        serial_runner, serial, serial_specs = run(1)
        parallel_runner, parallel, parallel_specs = run(4)
        for a, b in zip(serial, parallel):
            assert_results_identical(a, b)
        for a, b in zip(serial_specs, parallel_specs):
            assert rng_state(a) == rng_state(b)
        assert parallel_runner.num_gp_fleet_predicts > 0
        assert (
            parallel_runner.num_gp_fleet_predicts
            == serial_runner.num_gp_fleet_predicts
        )

    def test_more_workers_than_chunks_and_vice_versa(self):
        # Four equal-shape GP pools split into two cache-sized chunks once
        # their training sets grow (budget shrunk): one worker scores both
        # inline, two take one each, eight leave six idle.  All three are
        # schedules of the same chunk list.
        def run(step_workers):
            space = make_service_space()
            specs = [
                CampaignSpec(
                    search=make_gp_search(300 + i, space, num_candidates=32),
                    **BUDGET,
                )
                for i in range(4)
            ]
            runner = CampaignRunner(specs, step_workers=step_workers)
            runner.gp_predict_chunk_elements = 2000
            return runner.run()

        serial = run(1)
        for workers in (2, 8):
            for a, b in zip(serial, run(workers)):
                assert_results_identical(a, b)

    def test_results_after_run_match_the_returned_results(self):
        runner = CampaignRunner(make_mixed_specs(n=3), step_workers=2)
        returned = runner.run()
        assert runner.num_ticks > 0
        for a, b in zip(returned, runner.results()):
            assert_results_identical(a, b)

    @settings(max_examples=8, deadline=None)
    @given(
        step_workers=st.integers(min_value=2, max_value=7),
        n=st.integers(min_value=2, max_value=5),
    )
    def test_any_worker_count_is_bit_identical(self, step_workers, n):
        budget = dict(max_time=500.0, max_evaluations=14)
        serial = CampaignRunner(
            make_mixed_specs(n=n, budget=budget), step_workers=1
        ).run()
        parallel = CampaignRunner(
            make_mixed_specs(n=n, budget=budget), step_workers=step_workers
        ).run()
        for a, b in zip(serial, parallel):
            assert_results_identical(a, b)

    def test_injected_faults_quarantine_identically(self):
        def explode_after(limit):
            calls = {"n": 0}

            def run(config):
                calls["n"] += 1
                if calls["n"] > limit:
                    raise RuntimeError("injected campaign failure")
                return service_run_function(config)

            return run

        def specs():
            out = make_mixed_specs(n=5)
            doomed = CBOSearch(
                make_service_space(),
                explode_after(12),
                num_workers=6,
                surrogate=RandomForestSurrogate(n_estimators=6, seed=1),
                num_candidates=48,
                n_initial_points=5,
                seed=1,
            )
            out[2] = CampaignSpec(search=doomed, label="doomed", **BUDGET)
            return out

        serial_runner = CampaignRunner(
            specs(), step_workers=1, on_campaign_error="quarantine"
        )
        serial = serial_runner.run()
        parallel_runner = CampaignRunner(
            specs(), step_workers=4, on_campaign_error="quarantine"
        )
        parallel = parallel_runner.run()
        assert [q.index for q in serial_runner.quarantined] == [2]
        assert [q.index for q in parallel_runner.quarantined] == [2]
        assert (
            serial_runner.quarantined[0].phase
            == parallel_runner.quarantined[0].phase
        )
        for index, (a, b) in enumerate(zip(serial, parallel)):
            if index == 2:
                # The partial result of the quarantined campaign must agree
                # too: it failed at the same virtual moment in both runs.
                assert len(a.history) == len(b.history)
                continue
            assert_results_identical(a, b)


class TestElasticParallelStep:
    def test_elastic_parallel_matches_serial(self):
        def run_with(step_workers):
            runner = ElasticCampaignRunner(step_workers=step_workers)
            for spec in make_mixed_specs():
                runner.admit(spec)
            return runner.run_until_complete()

        for a, b in zip(run_with(1), run_with(4)):
            assert_results_identical(a, b)


class TestScoringErrorContext:
    """Regression: shard ``predict`` failures used to surface bare.

    A candidate-scoring crash inside ``score_executor.map`` lost which
    shard (and which campaign) died; the runner's quarantine path now
    receives a :class:`~repro.core.optimizer.CandidateScoringError` that
    carries the shard context, and records it against the owning campaign.
    """

    def test_runner_quarantines_scoring_failure_with_context(self):
        from repro.core.optimizer import CandidateScoringError

        class ExplodingSurrogate(RandomForestSurrogate):
            def predict(self, X):
                if self.fitted and X.shape[0] < 48:
                    raise FloatingPointError("singular score sheet")
                return super().predict(X)

        doomed = CBOSearch(
            make_service_space(),
            service_run_function,
            num_workers=6,
            surrogate=ExplodingSurrogate(n_estimators=6, seed=1),
            num_candidates=48,
            n_initial_points=5,
            score_shards=4,  # shards are 48/4 = 12 rows → explode
            seed=1,
        )
        # The healthy campaign is a GP one, so the doomed RF campaign's
        # pool is a fused-scoring group of one and scores solo, shard by
        # shard, through its own predict.
        specs = [
            CampaignSpec(search=make_gp_search(seed=0), label="good", **BUDGET),
            CampaignSpec(search=doomed, label="doomed", **BUDGET),
        ]
        runner = CampaignRunner(specs, on_campaign_error="quarantine")
        results = runner.run()
        assert [q.label for q in runner.quarantined] == ["doomed"]
        record = runner.quarantined[0]
        assert record.phase == "ask"
        assert isinstance(record.error, CandidateScoringError)
        assert record.error.num_shards == 4
        assert 0 <= record.error.shard_index < 4
        assert 0 < record.error.rows < 48
        assert record.error.surrogate == "ExplodingSurrogate"
        assert "shard" in str(record.error)
        # The healthy campaign is untouched.
        assert results[0] is not None
        assert math.isfinite(results[0].best_objective)
