"""Engine equivalence: bit-identical results across configurations.

The fast engine (:mod:`repro.sim.engine`) must produce **bit-identical**
``MachineStats``, energy and machine state for every configuration the
reference engine supports -- that property is what lets it be selected
without a ``CACHE_SCHEMA_VERSION`` bump.  These tests force both engines
over the differential scenario matrix, every protocol, and the
directory/paging/placement/hypervisor variants whose code paths the
fast engine specializes, comparing full machine digests (every counter,
every resident cache line, TLB entry and directory entry).  A resident
scenario pins the fast engine's bulk windows, and a tracemalloc check
pins that the executor never copies the whole trace.
"""

from __future__ import annotations

import json
import tracemalloc
from pathlib import Path

import pytest

from repro.api import ExperimentScale, RunRequest, Session
from repro.api.session import execute_request
from repro.sim.config import (
    CoherenceDirectoryConfig,
    PagingConfig,
    SystemConfig,
)
from repro.sim.engine import (
    ENGINE_FAST,
    ENGINE_REFERENCE,
    ENGINES,
    FastPathExecutor,
    FastPathMismatchError,
    diff_fingerprints,
    machine_digest,
    resolve_engine,
    result_fingerprint,
)
from repro.sim.simulator import Simulator, resolve_trace
from repro.workloads import make_workload
from tests.conftest import small_config
from tests.test_differential import SCENARIO_MATRIX, matrix_spec, _base_config

GOLDEN_DIR = Path(__file__).parent / "golden"


def assert_engines_identical(config: SystemConfig, workload_name: str, **run_kwargs):
    """Run both engines and require identical results and machine state."""
    outcomes = {}
    for engine in ENGINES:
        simulator = Simulator(config, engine=engine)
        result = simulator.run(make_workload(workload_name), **run_kwargs)
        outcomes[engine] = (simulator, result)
    ref_sim, ref_result = outcomes[ENGINE_REFERENCE]
    differences = []
    for engine in ENGINES[1:]:
        sim, result = outcomes[engine]
        differences += [
            f"{engine}: {line}"
            for line in diff_fingerprints(
                result_fingerprint(ref_result), result_fingerprint(result)
            ) + diff_fingerprints(machine_digest(ref_sim), machine_digest(sim))
        ]
    assert differences == [], "\n".join(differences[:30])
    return ref_result


#: a subset of the differential matrix covering every remap family,
#: every sharing model and every address model at least once.
MATRIX_SAMPLE = tuple(SCENARIO_MATRIX[:8])


@pytest.mark.parametrize("index", MATRIX_SAMPLE)
@pytest.mark.parametrize("protocol", ("software", "unitd", "hatric", "ideal"))
def test_matrix_scenarios_identical(index, protocol):
    spec = matrix_spec(index)
    config = _base_config().with_protocol(protocol)
    assert_engines_identical(config, spec.name)


@pytest.mark.parametrize(
    "label, config",
    [
        (
            "fifo-prefetch",
            small_config(
                paging=PagingConfig(
                    policy="fifo",
                    migration_daemon=True,
                    daemon_free_target=16,
                    prefetch_pages=2,
                )
            ),
        ),
        (
            "defrag",
            small_config(
                paging=PagingConfig(
                    policy="lru",
                    migration_daemon=False,
                    prefetch_pages=0,
                    defrag_interval=300,
                )
            ),
        ),
        (
            # foreground (daemon-less) evictions charge the faulting CPU
            # from inside the fault handler; regression guard for the
            # read-before-call aliasing bug in cycle accounting
            "foreground-evictions",
            small_config(
                paging=PagingConfig(
                    policy="lru", migration_daemon=False, prefetch_pages=0
                )
            ),
        ),
        ("xen", small_config(hypervisor="xen")),
        ("slow-only", small_config(placement="slow-only")),
        ("fast-only", small_config(placement="fast-only")),
        (
            "fine-grained-directory",
            small_config(
                directory=CoherenceDirectoryConfig(
                    capacity=4096, fine_grained=True
                )
            ),
        ),
        (
            "eager-directory-updates",
            small_config(
                directory=CoherenceDirectoryConfig(
                    capacity=4096, lazy_pt_sharer_updates=False
                )
            ),
        ),
        (
            "tiny-directory-back-invalidations",
            small_config(directory=CoherenceDirectoryConfig(capacity=96)),
        ),
        ("software-flushes", small_config(protocol="software")),
        (
            "structure-scale-2x",
            small_config(translation=small_config().translation.scaled(2)),
        ),
    ],
)
def test_config_variants_identical(label, config):
    spec = matrix_spec(1)  # a migration-daemon scenario with remap traffic
    result = assert_engines_identical(config, spec.name)
    assert result.stats.total_instructions > 0


def test_paper_workload_small_scale_identical():
    config = SystemConfig(num_cpus=4, protocol="hatric")
    assert_engines_identical(config, "data_caching", refs_total=8000)


#: Multi-VM consolidated shapes: pinned blocks, shared (oversubscribed)
#: pCPUs, mixed tenant workloads and a static memory partition, each a
#: distinct engine code path (stream-to-pCPU mapping, per-VM stats,
#: per-VM eviction caps).
MULTI_VM_SHAPES = (
    "multi:{a}@2+{b}@2".format,
    "multi:{a}@4+{b}@4+share=shared".format,
    "multi:{a}@2:0.3+{b}@2:0.3".format,
)


@pytest.mark.parametrize("shape", MULTI_VM_SHAPES)
@pytest.mark.parametrize("protocol", ("software", "hatric", "ideal"))
def test_multi_vm_configs_identical(shape, protocol):
    name = shape(a=matrix_spec(1).name, b=matrix_spec(6).name)
    config = _base_config().with_protocol(protocol)
    result = assert_engines_identical(config, name)
    assert len(result.stats.vms) == 2
    assert all(vm.instructions > 0 for vm in result.stats.vms)


def test_multiprogrammed_mix_identical():
    config = SystemConfig(num_cpus=4, protocol="hatric")
    assert_engines_identical(config, "mix04x4", refs_total=8000)


def test_back_invalidations_actually_exercised():
    """The tiny-directory variant really takes the capacity fallback."""
    config = small_config(directory=CoherenceDirectoryConfig(capacity=96))
    spec = matrix_spec(1)
    simulator = Simulator(config, engine=ENGINE_FAST)
    result = simulator.run(make_workload(spec.name))
    assert result.events.get("directory.back_invalidations", 0) > 0


def test_validation_mode_forces_reference_engine():
    config = small_config()
    simulator = Simulator(config, validate=True, engine=ENGINE_FAST)
    assert simulator.engine == ENGINE_REFERENCE


def test_engine_env_override(monkeypatch):
    for engine in ENGINES:
        monkeypatch.setenv("REPRO_SIM_ENGINE", engine)
        assert resolve_engine(None) == engine
    with pytest.raises(ValueError, match="known: reference, fast$"):
        resolve_engine("warp")
    monkeypatch.setenv("REPRO_SIM_ENGINE", "fsat")
    with pytest.raises(ValueError, match="REPRO_SIM_ENGINE"):
        resolve_engine(None)


# ----------------------------------------------------------------------
# golden snapshots under a forced fast engine
# ----------------------------------------------------------------------
def test_golden_figure7_with_fast_engine_forced(monkeypatch):
    """The committed figure7 golden values hold with the fast engine."""
    monkeypatch.setenv("REPRO_SIM_ENGINE", ENGINE_FAST)
    from repro.experiments import run_figure7

    result = run_figure7(
        workloads=("data_caching",),
        vcpu_counts=(4,),
        scale=ExperimentScale(trace_scale=0.2),
        session=Session(),
    )
    payload = {
        f"{cell.workload}/{cell.vcpus}vcpu/{cell.series}": cell.normalized_runtime
        for cell in result.cells
    }
    stored = json.loads((GOLDEN_DIR / "figure7_tiny.json").read_text())
    assert payload == stored


# ----------------------------------------------------------------------
# API plumbing: engine on RunRequest, validated execution
# ----------------------------------------------------------------------
def test_request_engine_field_keeps_default_cache_key():
    config = small_config()
    default = RunRequest(config=config, workload="canneal")
    explicit_fast = RunRequest(config=config, workload="canneal", engine="fast")
    reference = RunRequest(config=config, workload="canneal", engine="reference")
    # the default-engine payload has no engine key at all, so keys are
    # exactly what they were before engine selection existed
    assert "engine" not in default.to_dict()
    assert default.cache_key != explicit_fast.cache_key
    assert explicit_fast.cache_key != reference.cache_key
    assert len({default.cache_key, reference.cache_key,
                explicit_fast.cache_key}) == 3
    # engine selection never bumped the cache schema: choosing an
    # engine changes nothing about what any existing key resolves to
    from repro.api.request import CACHE_SCHEMA_VERSION

    assert CACHE_SCHEMA_VERSION == 2
    # round trip preserves the engine
    assert RunRequest.from_dict(explicit_fast.to_dict()).engine == "fast"
    assert RunRequest.from_dict(default.to_dict()).engine == ""
    for removed in ("warp", "soa"):
        with pytest.raises(ValueError):
            RunRequest(config=config, workload="canneal", engine=removed)


def test_request_engines_give_identical_results():
    spec = matrix_spec(2)
    config = _base_config()
    session = Session()
    results = [
        session.run(
            RunRequest(config=config, workload=spec.name, engine=engine)
        )
        for engine in ENGINES
    ]
    for other in results[1:]:
        assert result_fingerprint(results[0]) == result_fingerprint(other)


def test_validate_fastpath_mode_runs_and_passes(monkeypatch):
    monkeypatch.setenv("REPRO_VALIDATE_FASTPATH", "1")
    spec = matrix_spec(3)
    result = execute_request(
        RunRequest(config=_base_config(), workload=spec.name)
    )
    assert result.stats.total_instructions > 0


def test_validate_fastpath_mode_detects_divergence(monkeypatch):
    """A fabricated engine difference is reported, not swallowed."""
    monkeypatch.setenv("REPRO_VALIDATE_FASTPATH", "1")
    from repro.sim import engine as engine_module

    original = engine_module.FastPathExecutor._run_chunk

    def skewed(self, cpu, pos, end):
        count = original(self, cpu, pos, end)
        self.simulator.stats.cpus[cpu].busy_cycles += 1  # inject drift
        return count

    monkeypatch.setattr(engine_module.FastPathExecutor, "_run_chunk", skewed)
    spec = matrix_spec(3)
    with pytest.raises(FastPathMismatchError):
        execute_request(RunRequest(config=_base_config(), workload=spec.name))


#: A scenario whose working set is genuinely TLB/L1-resident, so the
#: fast engine's vectorized steady windows actually engage (the default
#: bench scenarios thrash by design and exercise the exact chunk path
#: instead).
RESIDENT_STEADY = "syn:steady/seed=7/fp=6/hot=1.0/cold=0.0/reuse=16"


def test_validate_fastpath_mode_detects_bulk_window_divergence(monkeypatch):
    """Drift injected into the bulk windows alone is caught."""
    monkeypatch.setenv("REPRO_VALIDATE_FASTPATH", "1")
    from repro.sim import engine as engine_module

    original = engine_module.FastPathExecutor._retire_rounds

    def skewed(self, active, positions, *args):
        count = original(self, active, positions, *args)
        cpu = self._pcpus[active[0]]
        self.simulator.stats.cpus[cpu].busy_cycles += 1  # inject drift
        return count

    monkeypatch.setattr(
        engine_module.FastPathExecutor, "_retire_rounds", skewed
    )
    with pytest.raises(FastPathMismatchError, match="fast engine diverged"):
        execute_request(
            RunRequest(
                config=SystemConfig(num_cpus=4, protocol="hatric"),
                workload=RESIDENT_STEADY,
                refs_total=16000,
            )
        )


# ----------------------------------------------------------------------
# bulk windows and trace memory
# ----------------------------------------------------------------------
def test_bulk_windows_engage_and_stay_identical(monkeypatch):
    """The vectorized window path really runs (not just the fallback)."""
    from repro.sim import engine as engine_module

    calls = {"windows": 0, "rounds": 0}
    original = engine_module.FastPathExecutor._scan_window

    def counted(self, positions, ends, active, horizon):
        rounds, limited, window = original(
            self, positions, ends, active, horizon
        )
        calls["windows"] += 1
        calls["rounds"] += rounds
        return rounds, limited, window

    monkeypatch.setattr(
        engine_module.FastPathExecutor, "_scan_window", counted
    )
    config = SystemConfig(num_cpus=4, protocol="hatric")
    assert_engines_identical(config, RESIDENT_STEADY, refs_total=24000)
    assert calls["windows"] > 0
    assert calls["rounds"] > 0


def test_fast_executor_does_not_copy_the_trace():
    """Building the executor allocates less than the trace itself.

    The executor reads the numpy streams in place, one chunk or one
    scan window at a time; a whole-trace Python-int copy of a trace
    costs several times its numpy size.
    """
    config = SystemConfig(num_cpus=16, protocol="hatric")
    simulator = Simulator(config, engine=ENGINE_FAST)
    trace = resolve_trace(
        make_workload(RESIDENT_STEADY), config.num_cpus, config.seed, 400_000
    )
    contexts = simulator._create_guests(trace)
    trace_bytes = sum(
        stream.nbytes + flags.nbytes
        for stream, flags in zip(trace.streams, trace.writes)
    )
    tracemalloc.start()
    try:
        executor = FastPathExecutor(simulator, trace, contexts)
        allocated = tracemalloc.get_traced_memory()[1]  # peak
    finally:
        tracemalloc.stop()
    assert executor._bulk
    assert allocated < trace_bytes, (allocated, trace_bytes)
