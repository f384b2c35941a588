"""Traversal fixpoints run to their defined output on every platform.

BFS, CONN and SSSP converge within ``fixpoint_round_bound(|V|)``
rounds, and every engine derives its round bound from the input
through that one function. A path graph whose eccentricity (259)
exceeds any constant cap an engine could hide must therefore validate
on all eight platforms; and a fixpoint loop that does reach its bound
raises instead of handing back a partial result.
"""

import importlib
import pkgutil

import pytest

import repro.platforms
from repro.core.cost import ClusterSpec
from repro.core.validation import OutputValidator
from repro.core.workload import Algorithm, AlgorithmParams, fixpoint_round_bound
from repro.graph.graph import Graph
from repro.platforms.dataflow.engine import DataflowEngine
from repro.platforms.gas.engine import GASEngine, GASProgram
from repro.platforms.gpu.engine import GPUEngine, gpu_device_spec
from repro.platforms.pregel.engine import PregelEngine, VertexProgram
from repro.platforms.rddgraph.graphx import GraphXGraph
from repro.platforms.rddgraph.rdd import RDDContext
from repro.platforms.registry import available_platforms, create_platform_fleet

PATH_VERTICES = 260
TRAVERSALS = (Algorithm.BFS, Algorithm.CONN, Algorithm.SSSP)


def _path(num_vertices: int) -> Graph:
    return Graph.from_edges(
        [(i, i + 1) for i in range(num_vertices - 1)]
    ).with_uniform_weights()


@pytest.fixture(scope="module")
def long_path() -> Graph:
    return _path(PATH_VERTICES)


def test_bound_is_derived_from_the_vertex_count():
    assert fixpoint_round_bound(0) == 2
    assert fixpoint_round_bound(PATH_VERTICES) == PATH_VERTICES + 2


@pytest.mark.parametrize("bulk", [True, False], ids=["bulk", "scalar"])
@pytest.mark.parametrize("platform_name", available_platforms())
def test_long_path_traversals_validate(long_path, platform_name, bulk):
    (platform,) = create_platform_fleet(
        ClusterSpec.paper_distributed(), names=[platform_name]
    )
    if not hasattr(platform, "bulk") and not bulk:
        pytest.skip("platform has a single execution path")
    if hasattr(platform, "bulk"):
        platform.bulk = bulk
    handle = platform.upload_graph("path-260", long_path)
    validator = OutputValidator()
    params = AlgorithmParams()
    for algorithm in TRAVERSALS:
        run = platform.run_algorithm(handle, algorithm, params)
        validator.validate(long_path, algorithm, params, run.output)
    platform.delete_graph(handle)


# -- a fixpoint loop that reaches its bound raises --------------------------


class _RunawayVertexProgram(VertexProgram):
    """Keeps every vertex busy forever; declares no bound of its own."""

    def initial_value(self, vertex, ctx):
        """Unused."""
        return 0

    def compute(self, ctx, messages):
        """Message yourself every superstep."""
        ctx.send(ctx.vertex, 1)
        ctx.vote_to_halt()


class _RunawayGASProgram(GASProgram):
    """Re-activates every neighbor forever; declares no bound."""

    def initial_value(self, vertex, degree):
        """Unused."""
        return 0

    def initially_active(self, vertex):
        """Everyone starts."""
        return True

    def gather(self, vertex, value, neighbor, neighbor_value, neighbor_degree):
        """Nothing to gather."""
        return None

    def gather_sum(self, left, right):
        """Unused."""
        return left

    def apply(self, vertex, value, gathered):
        """Count rounds."""
        return value + 1

    def scatter(self, vertex, old_value, new_value, neighbor):
        """Always re-activate."""
        return True


def _short_path() -> Graph:
    return _path(6)


def test_pregel_loop_raises_at_the_bound(cluster_spec):
    engine = PregelEngine(_short_path(), cluster_spec, bulk=False)
    with pytest.raises(RuntimeError, match="exceeded 8 supersteps"):
        engine.run(_RunawayVertexProgram())


def test_gpu_loop_raises_at_the_bound():
    engine = GPUEngine(_short_path(), gpu_device_spec())
    with pytest.raises(RuntimeError, match="exceeded 8 supersteps"):
        engine.run(_RunawayVertexProgram())


def test_gas_loops_raise_at_the_bound(cluster_spec):
    engine = GASEngine(_short_path(), cluster_spec, bulk=False)
    with pytest.raises(RuntimeError, match="exceeded 8 rounds"):
        engine.run(_RunawayGASProgram())
    with pytest.raises(RuntimeError, match="exceeded 8 sweeps"):
        engine.run_async(_RunawayGASProgram())


def test_delta_iteration_raises_at_the_bound(cluster_spec):
    graph = _short_path()
    engine = DataflowEngine(graph.adjacency_tuples(), cluster_spec)
    with pytest.raises(RuntimeError, match="exceeded 8 iterations"):
        engine.delta_iteration(
            initial_solution={},
            initial_workset=[(0, 1)],
            step=lambda flow, workset: workset,  # never drains
        )
    engine.close()


def test_graphx_pregel_raises_at_the_bound(cluster_spec):
    graph = GraphXGraph.from_adjacency(
        _short_path().adjacency(), RDDContext(cluster_spec)
    )
    with pytest.raises(RuntimeError, match="not reached in 8 iterations"):
        graph.pregel(
            initial=lambda v: v,
            vprog=lambda v, value, incoming: value,
            send=lambda src, value, dst: [(dst, value)],  # never quiet
            merge=min,
        )


#: Every module that binds the bound for a round-based engine.
_BOUND_USERS = (
    "repro.platforms.dataflow.bulk",
    "repro.platforms.dataflow.engine",
    "repro.platforms.gas.bulk",
    "repro.platforms.gas.engine",
    "repro.platforms.gpu.bulk",
    "repro.platforms.gpu.engine",
    "repro.platforms.mapreduce.driver",
    "repro.platforms.pregel.bulk",
    "repro.platforms.pregel.engine",
    "repro.platforms.rddgraph.bulk",
    "repro.platforms.rddgraph.graphx",
)


def test_bound_users_are_complete():
    """The patch list below covers every engine that reads the bound."""
    users = set()
    for info in pkgutil.walk_packages(
        repro.platforms.__path__, prefix="repro.platforms."
    ):
        module = importlib.import_module(info.name)
        if getattr(module, "fixpoint_round_bound", None) is fixpoint_round_bound:
            users.add(info.name)
    assert users == set(_BOUND_USERS)


@pytest.mark.parametrize("bulk", [True, False], ids=["bulk", "scalar"])
@pytest.mark.parametrize(
    "platform_name",
    ["giraph", "graphlab", "graphx", "mapreduce", "medusa", "stratosphere"],
)
@pytest.mark.parametrize("algorithm", TRAVERSALS, ids=lambda a: a.value)
def test_driver_raises_instead_of_returning_partial_output(
    monkeypatch, platform_name, bulk, algorithm
):
    """With the bound below the path's diameter, no driver returns."""
    for module in _BOUND_USERS:
        monkeypatch.setattr(
            importlib.import_module(module),
            "fixpoint_round_bound",
            lambda num_vertices: 3,
        )
    (platform,) = create_platform_fleet(
        ClusterSpec.paper_distributed(), names=[platform_name]
    )
    if not hasattr(platform, "bulk") and not bulk:
        pytest.skip("platform has a single execution path")
    if hasattr(platform, "bulk"):
        platform.bulk = bulk
    graph = _path(20)
    handle = platform.upload_graph("path-20", graph)
    with pytest.raises(RuntimeError):
        platform.run_algorithm(handle, algorithm, AlgorithmParams())
