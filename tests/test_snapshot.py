"""The checkpoint layer: snapshot/restore bit-identity, the prefix
cache, cross-process resumption, and the error surface.

The correctness bar for everything here is *bit-identity*: a simulator
restored at cycle k and run to N must be indistinguishable -- waveform
samples, per-wire activity, totals, cycle count -- from one that ran
0..N without stopping.  That property is what makes warm-prefix re-runs
(the :class:`~repro.rtl.snapshot.CheckpointStore` consulted by
``Session.run``/``sweep`` and the job queue) safe to apply silently.
"""

import pickle

import pytest

from repro import Session, SimConfig, get_registry
from repro.errors import SimulationError
from repro.rtl import snapshot as snap_mod
from repro.rtl.batch import BatchSimulator
from repro.rtl.executors import JobSpec, get_executor
from repro.rtl.kernel import fast_path_ready
from repro.rtl.simulator import ENGINES
from repro.rtl.snapshot import (
    CheckpointStore,
    capture,
    load_checkpoint,
    prefix_key,
    reset_checkpoint_store,
    restore,
    run_with_checkpoints,
    save_checkpoint,
)

ALL_SCENARIOS = get_registry().names()


@pytest.fixture(autouse=True)
def _fresh_store():
    """The process-wide store is shared state; isolate every test."""
    reset_checkpoint_store()
    yield
    reset_checkpoint_store()


def _build(name, **config):
    return get_registry().build(name, SimConfig(**config))


def _state(sim):
    return (sim.cycle, sim.waveform.samples, sim.activity,
            sim.total_activity())


# ---------------------------------------------------------------------------
# bit-identity: every scenario, every engine
# ---------------------------------------------------------------------------
class TestRestoreBitIdentity:
    CYCLES = 60
    SPLIT = 30

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("name", ALL_SCENARIOS)
    def test_restored_run_matches_from_zero(self, name, engine):
        reference = _build(name, engine=engine, cycles=self.CYCLES,
                           stim=200)
        reference.run(self.CYCLES)

        prefix = _build(name, engine=engine, cycles=self.CYCLES, stim=200)
        prefix.run(self.SPLIT)
        snap = prefix.snapshot()

        resumed = _build(name, engine=engine, cycles=self.CYCLES, stim=200)
        resumed.restore(snap)
        assert resumed.cycle == self.SPLIT
        resumed.run(self.CYCLES - self.SPLIT)
        assert _state(resumed) == _state(reference)

    @pytest.mark.parametrize("backend", ["interp", "pycompiled"])
    @pytest.mark.parametrize("name", ["anvil_streams", "anvil_aes"])
    def test_restored_run_matches_across_backends(self, name, backend):
        reference = _build(name, backend=backend, cycles=self.CYCLES,
                           stim=200)
        reference.run(self.CYCLES)
        prefix = _build(name, backend=backend, cycles=self.CYCLES,
                        stim=200)
        prefix.run(self.SPLIT)
        resumed = _build(name, backend=backend, cycles=self.CYCLES,
                         stim=200)
        resumed.restore(prefix.snapshot())
        resumed.run(self.CYCLES - self.SPLIT)
        assert _state(resumed) == _state(reference)

    @pytest.mark.parametrize("source,target", [("kernel", "brute"),
                                               ("brute", "kernel"),
                                               ("levelized", "kernel")])
    def test_snapshots_are_engine_portable(self, source, target):
        reference = _build("streams", engine=target, cycles=self.CYCLES,
                           stim=200)
        reference.run(self.CYCLES)
        prefix = _build("streams", engine=source, cycles=self.CYCLES,
                        stim=200)
        prefix.run(self.SPLIT)
        resumed = _build("streams", engine=target, cycles=self.CYCLES,
                         stim=200)
        resumed.restore(prefix.snapshot())
        resumed.run(self.CYCLES - self.SPLIT)
        assert _state(resumed) == _state(reference)

    def test_in_place_restore_rewinds_a_live_simulator(self):
        sim = _build("memory", cycles=100, stim=200)
        sim.run(40)
        snap = sim.snapshot()
        sim.run(60)
        reference = _state(sim)
        restore(sim, snap)
        assert sim.cycle == 40
        sim.run(60)
        assert _state(sim) == reference

    def test_restore_leaves_the_kernel_fast_path_armed(self):
        sim = _build("streams", engine="kernel", cycles=100, stim=200)
        sim.run(50)
        resumed = _build("streams", engine="kernel", cycles=100, stim=200)
        resumed.restore(sim.snapshot())
        assert fast_path_ready(resumed)

    def test_restore_then_poke_diverges_only_after_the_fork(self):
        reference = _build("streams", cycles=120, stim=300)
        reference.run(120)
        prefix = _build("streams", cycles=120, stim=300)
        prefix.run(60)
        forked = _build("streams", cycles=120, stim=300)
        forked.restore(prefix.snapshot())
        source = next(m for m in forked.modules if m.name == "st_src")
        source.queue = [word ^ 0xFF for word in source.queue]
        forked.run(60)

        ref_samples = reference.waveform.samples
        fork_samples = forked.waveform.samples
        assert fork_samples != ref_samples
        for label in ref_samples:
            assert (fork_samples[label][:60] == ref_samples[label][:60]), (
                f"{label}: prefix diverged before the fork cycle"
            )


# ---------------------------------------------------------------------------
# snapshots travel: pickling, disk files, the process pool
# ---------------------------------------------------------------------------
class TestSnapshotTransport:
    def test_snapshot_pickle_round_trip(self):
        sim = _build("anvil_mmu", cycles=80, stim=200)
        sim.run(40)
        snap = pickle.loads(pickle.dumps(sim.snapshot()))
        resumed = _build("anvil_mmu", cycles=80, stim=200)
        resumed.restore(snap)
        resumed.run(40)
        reference = _build("anvil_mmu", cycles=80, stim=200)
        reference.run(80)
        assert _state(resumed) == _state(reference)

    def test_save_and_load_checkpoint_files(self, tmp_path):
        sim = _build("streams", cycles=50, stim=200)
        sim.run(25)
        path = tmp_path / "nested" / "streams.ckpt"
        save_checkpoint(path, sim.snapshot())
        loaded = load_checkpoint(path)
        assert loaded.cycle == 25
        resumed = _build("streams", cycles=50, stim=200)
        resumed.restore(loaded)
        resumed.run(25)
        sim.run(25)
        assert _state(resumed) == _state(sim)

    def test_load_checkpoint_rejects_foreign_pickles(self, tmp_path):
        path = tmp_path / "bogus.ckpt"
        path.write_bytes(pickle.dumps({"not": "a snapshot"}))
        with pytest.raises(SimulationError, match="not a repro checkpoint"):
            load_checkpoint(path)

    def test_process_pool_worker_resumes_a_shipped_snapshot(self):
        cfg = SimConfig(cycles=90, stim=200)
        prefix = get_registry().build("streams", cfg)
        prefix.run(30)
        spec = JobSpec(
            kind="run_scenario", name="resumed", scenario="streams",
            config=cfg, cycles=90,
            params=(("resume_from", capture(prefix, scenario="streams")),),
        )
        results = get_executor("process", 1).run([spec])
        run = results["resumed"]
        assert run.resumed_from == 30
        assert run.cycles == 90
        reference = get_registry().build("streams", cfg)
        reference.run(90)
        assert run.activity == reference.activity
        assert run.samples == reference.waveform.samples

    def test_advanced_batch_resumes_on_the_process_executor(self):
        cfg = SimConfig(cycles=200, stim=500)
        batch = BatchSimulator()
        for name in ("streams", "memory"):
            batch.add_scenario(name, cfg)
        batch.run(120)      # local, so the sims hold cycle-120 state
        # ships cycle-120 snapshots to the pool; workers rebuild,
        # restore, and simulate only the 80-cycle tail
        batch.run(80, executor="process", parallel=2)
        for name in ("streams", "memory"):
            reference = get_registry().build(name, cfg)
            reference.run(200)
            assert batch[name].cycle == 200
            assert batch[name].activity == reference.activity
            samples = batch[name].waveform.samples
            assert samples == reference.waveform.samples, name

    def test_batch_snapshot_restore_round_trip(self):
        cfg = SimConfig(cycles=100, stim=300)
        batch = BatchSimulator()
        batch.add_scenario("streams", cfg)
        batch.add_scenario("memory", cfg)
        batch.run(50)
        snaps = batch.snapshot()
        fresh = BatchSimulator()
        fresh.add_scenario("streams", cfg)
        fresh.add_scenario("memory", cfg)
        fresh.restore(snaps)
        fresh.run(50)
        batch.run(50)
        for name in ("streams", "memory"):
            assert _state(fresh[name]) == _state(batch[name])


# ---------------------------------------------------------------------------
# the prefix cache: hit/miss accounting, LRU, disk spill
# ---------------------------------------------------------------------------
class TestCheckpointStore:
    def _snap_at(self, cycle):
        sim = _build("streams", cycles=cycle or 1, stim=200)
        if cycle:
            sim.run(cycle)
        return capture(sim)

    def test_misses_equal_unique_prefixes(self):
        store = CheckpointStore()
        cfg = SimConfig(cycles=50, stim=200)
        keys = [prefix_key(name, cfg, get_registry().build(name, cfg))
                for name in ("streams", "memory", "aes")]
        for key in keys:
            assert store.best(key, 1000) is None       # one miss each
        snap = self._snap_at(20)
        for key in keys:
            store.put(key, 20, snap)
            assert store.best(key, 1000) is not None   # hits from now on
        stats = store.stats()
        assert stats["misses"] == len(set(keys)) == 3
        assert stats["hits"] == 3
        assert stats["stores"] == 3

    def test_best_returns_deepest_at_or_below_the_limit(self):
        store = CheckpointStore()
        for cycle in (20, 40, 60):
            store.put("k", cycle, self._snap_at(cycle))
        cycle, snap = store.best("k", 55)
        assert cycle == snap.cycle == 40
        cycle, _snap = store.best("k", 60)
        assert cycle == 60
        assert store.best("k", 19) is None
        assert store.cycles("k") == [20, 40, 60]

    def test_put_dedups_existing_slots(self):
        store = CheckpointStore()
        snap = self._snap_at(20)
        assert store.put("k", 20, snap) is True
        assert store.put("k", 20, snap) is False
        assert store.stats()["stores"] == 1

    def test_lru_eviction_spills_to_disk_and_reloads(self, tmp_path):
        store = CheckpointStore(capacity=2, disk_dir=str(tmp_path))
        snaps = {c: self._snap_at(c) for c in (10, 20, 30)}
        for cycle, snap in snaps.items():
            store.put(f"key-{cycle}", cycle, snap)
        stats = store.stats()
        assert stats["evictions"] == 1 and stats["spills"] == 1
        assert stats["entries"] == 2 and stats["disk_entries"] == 1
        # the evicted (oldest) entry comes back from its spill file
        reloaded = store.best("key-10", 100)
        assert reloaded is not None
        cycle, snap = reloaded
        assert cycle == snap.cycle == 10
        assert store.stats()["disk_hits"] == 1

    def test_lru_eviction_without_disk_drops_the_oldest(self):
        store = CheckpointStore(capacity=2)
        for cycle in (10, 20, 30):
            store.put(f"key-{cycle}", cycle, self._snap_at(cycle))
        assert store.best("key-10", 100) is None
        assert store.best("key-30", 100) is not None

    def test_prefix_keys_separate_seed_stim_and_scenario(self):
        def key(name, **kw):
            kw.setdefault("stim", 200)
            cfg = SimConfig(cycles=50, **kw)
            return prefix_key(name, cfg, get_registry().build(name, cfg))

        base = key("streams")
        assert key("streams") == base                  # deterministic
        assert key("streams", seed=1) != base
        assert key("streams", stim=400) != base
        assert key("memory") != base


# ---------------------------------------------------------------------------
# warm prefixes through the public surface
# ---------------------------------------------------------------------------
class TestWarmPrefix:
    def test_extended_rerun_simulates_only_the_tail(self):
        session = Session(SimConfig(stim=800, checkpoint_every=25))
        first = session.run("streams", cycles=100)
        assert first.diagnostics["simulated_cycles"] == 100
        assert first.diagnostics["checkpoints_stored"] == 4

        extended = session.run("streams", cycles=400)
        assert extended.diagnostics["resumed_from"] == 100
        assert extended.diagnostics["simulated_cycles"] == 300

        cold = Session(SimConfig(stim=800)).run("streams", cycles=400)
        assert extended.activity == cold.activity
        assert extended.waveform.samples == cold.waveform.samples
        assert extended.total_activity == cold.total_activity

    def test_run_with_checkpoints_stores_every_boundary(self):
        sim = _build("streams", cycles=100, stim=300)
        store = CheckpointStore()
        stored = run_with_checkpoints(sim, 100, 30, store=store, key="k")
        assert stored == 4                      # cycles 30, 60, 90, 100
        assert store.cycles("k") == [30, 60, 90, 100]
        assert sim.cycle == 100

    def test_checkpoint_callback_sees_every_boundary(self):
        sim = _build("streams", cycles=60, stim=200)
        seen = []
        run_with_checkpoints(sim, 60, 25,
                             on_checkpoint=lambda c, s: seen.append(c))
        assert seen == [25, 50, 60]


# ---------------------------------------------------------------------------
# the error surface
# ---------------------------------------------------------------------------
class TestSnapshotErrors:
    def test_restore_rejects_a_different_topology(self):
        donor = _build("streams", cycles=50, stim=200)
        donor.run(10)
        other = _build("memory", cycles=50, stim=200)
        with pytest.raises(SimulationError, match="structure"):
            other.restore(donor.snapshot())

    @pytest.mark.parametrize("source,target", [("interp", "pycompiled"),
                                               ("pycompiled", "interp")])
    def test_restore_rejects_another_backend(self, source, target):
        """The two FSM backends keep different module state, so a
        snapshot of one must not restore under the other."""
        donor = _build("anvil_streams", backend=source, cycles=50,
                       stim=200)
        donor.run(10)
        other = _build("anvil_streams", backend=target, cycles=50,
                       stim=200)
        with pytest.raises(SimulationError, match="backend"):
            other.restore(donor.snapshot())

    def test_capture_rejects_detached_simulators(self):
        sim = _build("streams", cycles=50, stim=200)
        sim.adopt_remote(50, {}, {})
        with pytest.raises(SimulationError, match="adopted a remote run"):
            capture(sim)

    def test_restore_rejects_unknown_versions(self):
        sim = _build("streams", cycles=50, stim=200)
        sim.run(10)
        snap = sim.snapshot()
        object.__setattr__(snap, "version", snap_mod.SNAPSHOT_VERSION + 1)
        fresh = _build("streams", cycles=50, stim=200)
        with pytest.raises(SimulationError, match="version"):
            fresh.restore(snap)

    def test_stale_adoption_still_raises_without_a_resume(self):
        sim = _build("streams", cycles=50, stim=200)
        sim.run(10)
        with pytest.raises(SimulationError, match="resumed from cycle 0"):
            sim.adopt_remote(50, {}, {}, resumed_from=0)
