"""The executor subsystem (`repro.rtl.executors` + `repro.rtl.batch`):
JobSpec declarativeness and picklability, serial/thread/process
equivalence pinned bit-identical across engines x backends, clean
failure propagation with worker tracebacks, deterministic
submission-order results, and the REPRO_PARALLEL parsing contract."""

import pickle

import pytest

from repro.api import Session, SimConfig, UnknownScenarioError
from repro.rtl.batch import BatchSimulator, _env_parallel, _pool_size, run_batch
from repro.rtl.executors import (
    EXECUTORS,
    ExecutorError,
    JobSpec,
    ProcessExecutor,
    ScenarioRun,
    _warm_specs,
    execute_job,
    get_executor,
)

#: small workloads throughout -- these tests pin behaviour, not perf
FAST = dict(stim=120, cycles=50)

#: a real pool even on single-core boxes (auto sizing would collapse
#: the process executor to one worker there)
POOL = dict(jobs=2)


def _spec(name, scenario=None, **cfg):
    return JobSpec(kind="run_scenario", name=name,
                   scenario=scenario or name, config=SimConfig(**FAST, **cfg))


# ---------------------------------------------------------------------------
# JobSpec
# ---------------------------------------------------------------------------
class TestJobSpec:
    def test_pickles_with_config(self):
        spec = _spec("memory", backend="pycompiled",
                     engine="brute")
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.config.backend == "pycompiled"

    def test_param_lookup_and_defaults(self):
        spec = JobSpec(kind="bench_scenario", name="x", scenario="memory",
                       params=(("warmup", 5), ("repeats", 2)))
        assert spec.param("warmup") == 5
        assert spec.param("nonesuch", 42) == 42

    def test_run_cycles_prefers_explicit_override(self):
        assert _spec("memory").run_cycles == FAST["cycles"]
        spec = JobSpec(kind="run_scenario", name="m", scenario="memory",
                       config=SimConfig(**FAST), cycles=7)
        assert spec.run_cycles == 7

    def test_validation(self):
        with pytest.raises(ValueError, match="kind"):
            JobSpec(kind="", name="x")
        with pytest.raises(ValueError, match="name"):
            JobSpec(kind="run_scenario", name="")

    def test_unknown_kind_is_actionable(self):
        with pytest.raises(ValueError, match="run_scenario"):
            execute_job(JobSpec(kind="warp_drive", name="x"))

    def test_unknown_executor_is_actionable(self):
        with pytest.raises(ValueError, match="'process'"):
            get_executor("warp", 2)

    def test_scenario_run_drops_sim_at_the_pickle_boundary(self):
        run = execute_job(_spec("memory"))
        assert isinstance(run, ScenarioRun) and run.sim is not None
        clone = pickle.loads(pickle.dumps(run))
        assert clone.sim is None
        assert clone.activity == run.activity
        assert clone.samples == run.samples


# ---------------------------------------------------------------------------
# cross-executor equivalence: the central guarantee
# ---------------------------------------------------------------------------
class TestExecutorEquivalence:
    @pytest.mark.parametrize("engine,backend", [
        ("levelized", "interp"),
        ("levelized", "pycompiled"),
        ("brute", "interp"),
        ("brute", "pycompiled"),
    ])
    def test_sweep_bit_identical_across_executors(self, engine, backend):
        """serial, thread and process sweeps must agree on waveforms
        and per-wire activity for every engine x backend pair."""
        session = Session(SimConfig(**FAST, engine=engine,
                                    backend=backend))
        names = ["memory", "anvil_streams"]
        reference = session.sweep(names, executor="serial")
        for executor in ("thread", "process"):
            swept = session.sweep(names, executor=executor, **POOL)
            for name in names:
                assert swept[name].activity \
                    == reference[name].activity, (executor, name)
                assert swept[name].waveform.samples \
                    == reference[name].waveform.samples, (executor, name)

    def test_y86_cpu_sweep_survives_the_pickle_boundary(self):
        """the y86 scenarios rebuild a whole CPU-plus-memory system in
        the worker from the JobSpec alone; the observables must land
        byte-identical with the in-process build."""
        session = Session(SimConfig(**FAST, seed=3))
        names = ["y86_sum", "y86_memcpy"]
        reference = session.sweep(names, executor="serial")
        swept = session.sweep(names, executor="process", **POOL)
        for name in names:
            assert swept[name].activity == reference[name].activity
            assert swept[name].waveform.samples \
                == reference[name].waveform.samples
            assert swept[name].sim is None

    def test_process_sweep_matches_solo_run(self):
        session = Session(SimConfig(**FAST))
        solo = session.run("streams")
        swept = session.sweep(["streams"], executor="process", **POOL)
        assert swept["streams"].activity == solo.activity
        assert swept["streams"].waveform.samples \
            == solo.waveform.samples
        # remote runs carry data, not simulators
        assert swept["streams"].sim is None

    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    def test_sweep_seeds_bit_identical_across_executors(self, executor):
        """a seeded sweep keys one result per (scenario, seed) and each
        equals a serial single run of that seed."""
        names = ["streams", "anvil_mmu"]
        seeds = [2, 3, 4]
        cfg = SimConfig(stim=120, engine="kernel", backend="pycompiled",
                        executor="serial")
        swept = Session(cfg.replace(executor=executor, **POOL)).sweep(
            names, cycles=50, seeds=seeds)
        assert list(swept) == [f"{n}@s{s}" for n in names for s in seeds]
        for n in names:
            for s in seeds:
                ref = Session(cfg.replace(seed=s)).run(n, cycles=50)
                got = swept[f"{n}@s{s}"]
                assert got.activity == ref.activity, (n, s)
                assert got.waveform.samples == ref.waveform.samples, (n, s)

    def test_batch_simulator_adopts_remote_runs(self):
        cfg = SimConfig(stim=100)
        reference = BatchSimulator(parallel=False)
        reference.add_scenario("memory", cfg)
        reference.add_scenario("streams", cfg)
        reference.run(40)

        batch = BatchSimulator()
        batch.add_scenario("memory", cfg)
        batch.add_scenario("streams", cfg)
        batch.run(40, executor="process", parallel=2)
        assert batch.total_activity() == reference.total_activity()
        assert batch.cycles() == {"memory": 40, "streams": 40}
        assert batch["memory"].waveform.samples \
            == reference["memory"].waveform.samples
        assert batch["memory"].detached

    def test_adopted_simulators_refuse_to_advance(self):
        batch = BatchSimulator()
        batch.add_scenario("memory", SimConfig(stim=60))
        batch.run(20, executor="process", parallel=2)
        from repro.errors import SimulationError
        with pytest.raises(SimulationError, match="remote"):
            batch["memory"].run(1)


# ---------------------------------------------------------------------------
# failure propagation
# ---------------------------------------------------------------------------
class TestFailurePropagation:
    def test_process_reraises_original_with_worker_traceback(self):
        session = Session(SimConfig(**FAST))
        with pytest.raises(UnknownScenarioError,
                           match="known scenarios") as exc:
            session.sweep(["streams", "nonesuch"], executor="process",
                          **POOL)
        cause = exc.value.__cause__
        assert isinstance(cause, ExecutorError)
        assert cause.job_name == "nonesuch"
        assert "worker traceback" in str(cause)
        assert "UnknownScenarioError" in cause.worker_traceback

    def test_first_failure_in_submission_order_wins(self):
        specs = [_spec("bad_a", scenario="nonesuch_a"),
                 _spec("memory"),
                 _spec("bad_b", scenario="nonesuch_b")]
        for executor in EXECUTORS:
            with pytest.raises(KeyError, match="nonesuch_a"):
                run_batch(specs, parallel=2, executor=executor)

    def test_thread_thunk_failures_still_propagate(self):
        def boom():
            raise ValueError("thunk exploded")
        with pytest.raises(ValueError, match="thunk exploded"):
            run_batch([("ok", lambda: 1), ("boom", boom)], parallel=2)

    def test_process_rejects_unpicklable_thunk_jobs(self):
        with pytest.raises(TypeError, match="JobSpec"):
            run_batch([("thunk", lambda: 1)], parallel=2,
                      executor="process")

    def test_batch_simulator_demands_provenance_for_process(self):
        from repro.api import get_registry
        batch = BatchSimulator()
        batch.add(get_registry().build("memory", SimConfig(stim=60)))
        with pytest.raises(ValueError, match="provenance"):
            batch.run(10, executor="process", parallel=2)

    def test_batch_simulator_process_resumes_advanced_sims(self):
        # the historical "one-shot only" restriction is gone: an
        # already-advanced sim ships a snapshot with its JobSpec and
        # the worker resumes it bit-identically...
        batch = BatchSimulator()
        batch.add_scenario("memory", SimConfig(stim=60))
        batch.run(10, parallel=False)          # advance locally first
        batch.run(10, executor="process", parallel=2)
        reference = BatchSimulator()
        reference.add_scenario("memory", SimConfig(stim=60))
        reference.run(20, parallel=False)
        assert batch["memory"].cycle == 20
        assert batch["memory"].activity == reference["memory"].activity

    def test_batch_simulator_detached_sims_stay_one_shot(self):
        # ...but a sim that already adopted a remote run holds no local
        # state to snapshot and still refuses
        batch = BatchSimulator()
        batch.add_scenario("memory", SimConfig(stim=60))
        batch.run(10, executor="process", parallel=2)
        with pytest.raises(ValueError, match="adopted a remote run"):
            batch.run(10, executor="process", parallel=2)


# ---------------------------------------------------------------------------
# determinism and sharding
# ---------------------------------------------------------------------------
class TestDeterminism:
    def test_results_keyed_in_submission_order(self):
        names = ["pipeline", "aes", "memory", "streams"]
        specs = [_spec(n) for n in names]
        for executor in EXECUTORS:
            results = run_batch(specs, parallel=2, executor=executor)
            assert list(results) == names, executor

    def test_chunked_sharding_covers_every_job(self):
        specs = [_spec(f"memory#{i}", scenario="memory", seed=i)
                 for i in range(5)]
        pool = ProcessExecutor(workers=2, chunk_size=2)
        results = pool.run(specs)
        assert list(results) == [s.name for s in specs]
        # distinct seeds really produced distinct stimulus
        activities = [r.total_activity for r in results.values()]
        assert len(set(activities)) > 1

    def test_repeated_process_runs_are_identical(self):
        session = Session(SimConfig(**FAST))
        a = session.sweep(["memory"], executor="process", **POOL)
        b = session.sweep(["memory"], executor="process", **POOL)
        assert a["memory"].activity == b["memory"].activity
        assert a["memory"].waveform.samples \
            == b["memory"].waveform.samples


# ---------------------------------------------------------------------------
# worker warm-up
# ---------------------------------------------------------------------------
class TestWarmup:
    def test_warm_specs_dedupe_and_select_compiled_paths_only(self):
        # only jobs with something to pre-compile are worth warming:
        # the pycompiled FSM backend and the kernel settle engine
        interp = _spec("memory", engine="levelized")
        compiled = _spec("anvil_memory", backend="pycompiled")
        twin = _spec("anvil_memory#2", scenario="anvil_memory",
                     backend="pycompiled")
        warm = _warm_specs([interp, compiled, twin, compiled])
        assert [(s, c.backend) for s, c in warm] \
            == [("anvil_memory", "pycompiled")]
        # warm builds are minimal-stimulus clones
        assert warm[0][1].stim == 1

    def test_warmup_disabled_still_correct(self):
        specs = [_spec("anvil_streams", backend="pycompiled")]
        cold = ProcessExecutor(workers=2, warmup=False).run(specs)
        warm = ProcessExecutor(workers=2, warmup=True).run(specs)
        assert cold["anvil_streams"].activity \
            == warm["anvil_streams"].activity


# ---------------------------------------------------------------------------
# the REPRO_PARALLEL contract
# ---------------------------------------------------------------------------
class TestPoolSizeEnv:
    @pytest.mark.parametrize("value", ["0", "false", "no", "off", " OFF "])
    def test_falsy_values_force_serial(self, value, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL", value)
        assert _pool_size(None, 8) == 1

    def test_positive_integer_forces_worker_count(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL", "3")
        assert _pool_size(None, 8) == 3
        # the environment wins over the call-site knob
        assert _pool_size(False, 8) == 3

    @pytest.mark.parametrize("value", ["auto", "true", "yes", "on", ""])
    def test_auto_values_fall_through(self, value, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL", value)
        assert _env_parallel() is None
        assert _pool_size(False, 8) == 1
        assert _pool_size(4, 8) == 4

    @pytest.mark.parametrize("value", ["junk", "-2", "1.5", "none"])
    def test_garbage_is_a_clear_error(self, value, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL", value)
        with pytest.raises(ValueError, match="REPRO_PARALLEL"):
            _pool_size(None, 8)

    def test_unset_resolves_from_the_call_site(self, monkeypatch):
        monkeypatch.delenv("REPRO_PARALLEL", raising=False)
        assert _pool_size(False, 8) == 1
        assert _pool_size(6, 8) == 6
        assert _pool_size(None, 8) >= 1

    def test_repro_parallel_zero_forces_serial_even_for_process(
            self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL", "0")
        # degrades to in-process serial execution of the same JobSpecs
        results = run_batch([_spec("memory")], executor="process")
        assert results["memory"].sim is not None

    def test_repro_parallel_one_keeps_the_process_pool(self, monkeypatch):
        # a forced worker count of 1 is NOT the serial escape hatch: a
        # one-process pool still crosses the pickling boundary, which
        # is exactly what a debugging run wants to exercise
        monkeypatch.setenv("REPRO_PARALLEL", "1")
        results = run_batch([_spec("memory")], executor="process")
        assert results["memory"].sim is None


# ---------------------------------------------------------------------------
# batch-level input validation
# ---------------------------------------------------------------------------
class TestRunBatchValidation:
    def test_duplicate_job_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate job name"):
            run_batch([_spec("memory"), _spec("memory")],
                      parallel=False)
        with pytest.raises(ValueError, match="duplicate job name"):
            run_batch([("x", lambda: 1), ("x", lambda: 2)],
                      parallel=False)

    def test_sweep_rejects_duplicate_scenarios(self):
        with pytest.raises(ValueError, match="duplicate job name"):
            Session(SimConfig(**FAST)).sweep(["streams", "streams"])
