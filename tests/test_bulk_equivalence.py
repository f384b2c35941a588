"""Exact scalar/bulk equivalence across every converted platform.

The vectorized bulk paths (``pregel/bulk.py``, ``gas/bulk.py``,
``rddgraph/bulk.py``, ``dataflow/bulk.py``, ``gpu/bulk.py``, and the
batched MapReduce shuffle accounting)
promise *bit-identical* results to the scalar per-record paths — not
approximately equal. The charges they batch are all integer-valued
floats, and float64 addition of integers below 2**53 is exact, so one
bulk charge of a pre-summed total equals the scalar call sequence
bit for bit (see ``CostMeter.charge_compute_bulk``).

These tests hold every platform to that contract on *every*
algorithm, discovered from the ``Algorithm`` enum rather than
hand-listed — so an algorithm that gains a bulk kernel (BFS, CONN,
and PR have them today) is automatically held to the bar, and an
algorithm without one must still produce identical results and
profiles by running the same scalar path under both flags. The sweep
covers a directed graph, an undirected graph, a graph with sparse
vertex ids plus an isolated vertex, and a high-diameter lattice whose
traversals take dozens of rounds of small frontiers (R-MAT's take a
handful). "Identical" means the algorithm
outputs, the per-round charge structure, and the profile totals
(``simulated_seconds``, ``total_messages``, peak memory) all compare
equal with ``==``.

The bar also holds for program subclasses: a subclass that changes a
scalar hook (the combiner, the gather sum, the reducer) must not be
run by the kernel its parent declared.
"""

import pytest

from repro.core.cost import ClusterSpec
from repro.core.workload import Algorithm, AlgorithmParams
from repro.graph.generators import grid_graph, rmat_graph
from repro.graph.graph import Graph
from repro.platforms.dataflow.driver import StratospherePlatform
from repro.platforms.gas.driver import GraphLabPlatform
from repro.platforms.gas.engine import GASEngine
from repro.platforms.gas.programs import GASConnProgram
from repro.platforms.gpu.driver import MedusaPlatform
from repro.platforms.gpu.engine import GPUEngine, gpu_device_spec
from repro.platforms.mapreduce import driver as mapreduce_driver
from repro.platforms.mapreduce.driver import MapReducePlatform
from repro.platforms.mapreduce.jobs import ConnIterationJob
from repro.platforms.pregel.driver import GiraphPlatform
from repro.platforms.pregel.engine import PregelEngine
from repro.platforms.pregel.programs import ConnProgram
from repro.platforms.rddgraph.driver import GraphXPlatform

#: Every platform with a bulk toggle.
CONVERTED_PLATFORMS = [
    GiraphPlatform,
    GraphLabPlatform,
    GraphXPlatform,
    MapReducePlatform,
    StratospherePlatform,
    MedusaPlatform,
]

#: Every algorithm, auto-discovered from the enum: new algorithms (and
#: new bulk kernels) join the equivalence sweep without editing this
#: file.
BULK_ALGORITHMS = list(Algorithm)


def _sparse_id_graph() -> Graph:
    """Non-contiguous vertex ids, an isolated vertex, two components."""
    return Graph.from_edges(
        [(10, 20), (20, 400), (400, 10), (7, 9)],
        vertices=[10, 20, 400, 7, 9, 100_000],
        directed=False,
    )


GRAPHS = {
    "rmat-directed": lambda: rmat_graph(
        scale=7, edge_factor=8, seed=42, directed=True
    ),
    "rmat-undirected": lambda: rmat_graph(
        scale=6, edge_factor=8, seed=7, directed=False
    ),
    "sparse-ids": _sparse_id_graph,
    # 256 vertices, BFS eccentricity 26 from the corner source.
    "grid": lambda: grid_graph(16, diagonal_probability=0.05, seed=11),
}


def _cluster(platform_cls) -> ClusterSpec:
    """The spec a platform runs on in the sweep.

    Medusa is one GPU device and refuses the 10-worker cluster.
    """
    if platform_cls is MedusaPlatform:
        return gpu_device_spec()
    return ClusterSpec.paper_distributed()


def profile_key(profile):
    """Everything a profile says, minus nothing: the exactness bar."""
    rounds = tuple(
        (
            record.name,
            tuple(record.ops_per_worker),
            tuple(record.random_accesses_per_worker),
            record.local_messages,
            record.remote_messages,
            record.remote_bytes,
            record.disk_read_bytes,
            record.disk_write_bytes,
            record.active_vertices,
            record.barrier_seconds,
            record.seconds,
        )
        for record in profile.rounds
    )
    return (
        rounds,
        profile.simulated_seconds,
        profile.total_messages,
        tuple(profile.peak_memory_per_worker),
        profile.startup_seconds,
    )


def _run(platform_cls, bulk: bool, graph: Graph, algorithm: Algorithm):
    if algorithm is Algorithm.SSSP and not graph.is_weighted:
        graph = graph.with_uniform_weights(seed=3)
    platform = platform_cls(_cluster(platform_cls), bulk=bulk)
    handle = platform.upload_graph("equivalence", graph)
    run = platform.run_algorithm(handle, algorithm, AlgorithmParams())
    return run.output, profile_key(run.profile)


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("algorithm", BULK_ALGORITHMS, ids=lambda a: a.value)
@pytest.mark.parametrize(
    "platform_cls", CONVERTED_PLATFORMS, ids=lambda cls: cls.name
)
def test_bulk_path_is_bit_identical(platform_cls, algorithm, graph_name):
    graph = GRAPHS[graph_name]()
    bulk_output, bulk_profile = _run(platform_cls, True, graph, algorithm)
    scalar_output, scalar_profile = _run(platform_cls, False, graph, algorithm)
    assert bulk_output == scalar_output
    assert bulk_profile == scalar_profile


@pytest.mark.parametrize("algorithm", list(Algorithm), ids=lambda a: a.value)
def test_mapreduce_bulk_covers_every_job(algorithm):
    """Every job chain in ``jobs.py`` is bulk/scalar-identical.

    BFS and CONN exercise the columnar ``RecordBatch`` executor; the
    remaining jobs (CD, STATS, EVO, and the PR/SSSP/LCC chains) stay
    on scalar records under ``bulk=True`` (their jobs carry
    non-columnar values) but still flow through the batched shuffle
    accounting — either way the outputs and full cost profiles must
    match the ``bulk=False`` run exactly.
    """
    graph = GRAPHS["rmat-undirected"]()
    bulk_output, bulk_profile = _run(MapReducePlatform, True, graph, algorithm)
    scalar_output, scalar_profile = _run(
        MapReducePlatform, False, graph, algorithm
    )
    assert bulk_output == scalar_output
    assert bulk_profile == scalar_profile


@pytest.mark.parametrize(
    "platform_cls", CONVERTED_PLATFORMS, ids=lambda cls: cls.name
)
def test_bulk_is_the_default(platform_cls):
    # The fast path must be what the benchmark actually runs.
    assert platform_cls(_cluster(platform_cls)).bulk is True


# -- subclassed programs: the bulk path must honour the scalar hooks --------


class _UncombinedConn(ConnProgram):
    """HashMin without the min combiner: every arc is a wire message."""

    def combiner(self):
        """No sender-side combining."""
        return None


class _MaxGatherConn(GASConnProgram):
    """GAS CONN whose gather sum keeps the largest offered label."""

    def gather_sum(self, left, right):
        """The largest label instead of the smallest."""
        return max(left, right)


class _FrozenConn(ConnIterationJob):
    """CONN iteration whose reducer ignores every offered label."""

    def reduce(self, key, values, counters):
        """Re-emit the state record unchanged."""
        for value in values:
            if value[0] == "A":
                yield key, (value[1], value[2])


def _engine_run(engine_cls, spec, program, bulk):
    engine = engine_cls(GRAPHS["rmat-undirected"](), spec, bulk=bulk)
    result = engine.run(program)
    return result.values, profile_key(engine.meter.profile)


@pytest.mark.parametrize(
    "engine_cls, spec, program",
    [
        (PregelEngine, ClusterSpec.paper_distributed(), _UncombinedConn()),
        (GPUEngine, gpu_device_spec(), _UncombinedConn()),
        (GASEngine, ClusterSpec.paper_distributed(), _MaxGatherConn()),
    ],
    ids=["giraph-uncombined", "medusa-uncombined", "graphlab-max-gather"],
)
def test_subclassed_program_runs_its_own_hooks(engine_cls, spec, program):
    """A subclass that changes a scalar hook is not run by the kernel."""
    assert _engine_run(engine_cls, spec, program, True) == _engine_run(
        engine_cls, spec, program, False
    )


def test_subclassed_mapreduce_job_runs_its_own_reduce(monkeypatch):
    monkeypatch.setattr(mapreduce_driver, "ConnIterationJob", _FrozenConn)
    graph = GRAPHS["rmat-undirected"]()
    bulk_output, bulk_profile = _run(MapReducePlatform, True, graph, Algorithm.CONN)
    scalar_output, scalar_profile = _run(
        MapReducePlatform, False, graph, Algorithm.CONN
    )
    assert bulk_output == scalar_output == {v: v for v in bulk_output}
    assert bulk_profile == scalar_profile
