"""GraphX-style graph API on the RDD substrate.

A :class:`GraphXGraph` is a pair of RDDs — vertices ``(id, value)``
and directed edges ``(src, dst)`` (undirected graphs store both
orientations, as GraphX's algorithms effectively do) — plus the
operations the paper mentions: built-in degree/count operators, an
``aggregate_messages`` primitive, ``connected_components``, and a
Pregel loop.

The Pregel loop is implemented exactly the way GraphX implements it:
every iteration joins the message RDD with the vertex RDD to produce a
*new* vertex RDD, and aggregates messages by scanning the *entire*
edge RDD (GraphX cannot cheaply restrict triplet scans to the active
frontier). Two structural consequences follow, both visible in the
paper's results:

* per-iteration work is Θ(edges) even when the frontier is tiny —
  the simulated GraphX trails the active-set-only Giraph by roughly
  the ratio the paper reports for CONN (≈3×);
* the previous vertex generation stays cached one iteration longer
  (lineage), so peak memory carries two vertex RDDs plus message
  RDDs — the simulated GraphX exhausts worker memory on workloads
  the leaner Giraph representation survives ("GraphX is unable to
  process some of the workloads that Giraph can process").
"""

from __future__ import annotations

from typing import Any, Callable

from repro.core.workload import fixpoint_round_bound
from repro.platforms.rddgraph.rdd import RDD, RDDContext

__all__ = ["GraphXGraph"]


class GraphXGraph:
    """Property graph backed by vertex and edge RDDs."""

    def __init__(self, vertices: RDD, edges: RDD, context: RDDContext):
        self.vertices = vertices
        self.edges = edges
        self.context = context

    # -- construction -------------------------------------------------------

    @classmethod
    def from_adjacency(
        cls,
        adjacency: dict[int, list[int]],
        context: RDDContext,
        default_value: Any = None,
    ) -> "GraphXGraph":
        """Build vertex and (symmetric) edge RDDs from adjacency."""
        vertices = context.parallelize_pairs(
            [(v, default_value) for v in sorted(adjacency)], name="vertices"
        )
        arcs = [
            (source, target)
            for source in sorted(adjacency)
            for target in adjacency[source]
        ]
        # Edge RDD is partitioned by source so sendMsg can join locally.
        edges = context.parallelize_pairs(arcs, name="edges")
        return cls(vertices, edges, context)

    # -- built-in operators ---------------------------------------------------

    def num_vertices(self) -> int:
        """Built-in operator: number of vertices."""
        return self.vertices.count()

    def num_edges(self) -> int:
        """Built-in operator: number of (directed) edges."""
        return self.edges.count()

    def degrees(self) -> RDD:
        """``(vertex, degree)`` — one of GraphX's built-in operators."""
        return self.edges.map(
            lambda arc: (arc[0], 1), name="degree-ones"
        ).reduce_by_key(lambda a, b: a + b, name="degrees")

    def map_vertices(self, fn: Callable[[int, Any], Any]) -> "GraphXGraph":
        """New graph with transformed vertex values."""
        new_vertices = self.vertices.map(
            lambda kv: (kv[0], fn(kv[0], kv[1])), name="mapVertices"
        )
        return GraphXGraph(new_vertices, self.edges, self.context)

    def aggregate_messages(
        self,
        send: Callable[[int, Any, int], list[tuple[int, Any]]],
        merge: Callable[[Any, Any], Any],
    ) -> RDD:
        """GraphX's ``aggregateMessages``.

        ``send(src, src_value, dst)`` returns the messages one edge
        triplet emits; messages are merged per target with ``merge``.
        The whole edge RDD is scanned (triplets = edges ⋈ vertices).
        """
        triplets = self.edges.join(self.vertices, name="triplets")
        # triplets records: (src, (dst, src_value))
        messages = triplets.flat_map(
            lambda rec: send(rec[0], rec[1][1], rec[1][0]), name="sendMsg"
        )
        merged = messages.reduce_by_key(merge, name="mergeMsg")
        triplets.unpersist()
        messages.unpersist()
        return merged

    def join_vertices(
        self, messages: RDD, vprog: Callable[[int, Any, Any], Any]
    ) -> "GraphXGraph":
        """New graph whose vertex values absorb the messages."""
        joined = self.vertices.left_outer_join(messages, name="vprog-join")
        new_vertices = joined.map(
            lambda rec: (rec[0], vprog(rec[0], rec[1][0], rec[1][1])),
            name="vprog",
        )
        joined.unpersist()
        return GraphXGraph(new_vertices, self.edges, self.context)

    # -- Pregel on RDDs -----------------------------------------------------------

    def pregel(
        self,
        initial: Callable[[int], Any],
        vprog: Callable[[int, Any, Any], Any],
        send: Callable[[int, Any, int], list[tuple[int, Any]]],
        merge: Callable[[Any, Any], Any],
        max_iterations: int | None = None,
    ) -> RDD:
        """The GraphX Pregel loop; returns the final vertex RDD.

        ``send`` receives ``(src, src_value, dst)`` for every edge and
        returns ``[(target, message), ...]``; vertices whose value is
        unchanged may still emit (matching GraphX, where activity is
        encoded in the vertex value by the algorithm author).

        The loop ends when a round sends no messages, or after an
        explicit ``max_iterations`` rounds (GraphX's ``maxIterations``:
        the caller's declared budget). Without one the loop is a
        fixpoint: it raises after
        :func:`~repro.core.workload.fixpoint_round_bound` rounds that
        all sent messages rather than return a partial result.
        """
        fixpoint = max_iterations is None
        if fixpoint:
            max_iterations = fixpoint_round_bound(self.num_vertices())
        graph = self.map_vertices(lambda v, _old: initial(v))
        previous_vertices = None
        for _iteration in range(max_iterations):
            messages = graph.aggregate_messages(send, merge)
            if messages.count() == 0:
                messages.unpersist()
                break
            next_graph = graph.join_vertices(messages, vprog)
            messages.unpersist()
            # Lineage: the previous generation is released only now,
            # so two vertex RDD generations coexist at the peak.
            if previous_vertices is not None:
                previous_vertices.unpersist()
            previous_vertices = graph.vertices
            graph = next_graph
        else:
            if fixpoint:
                raise RuntimeError(
                    f"pregel fixpoint not reached in {max_iterations} iterations"
                )
        if previous_vertices is not None:
            previous_vertices.unpersist()
        return graph.vertices

    def connected_components(self) -> RDD:
        """GraphX's built-in connected components (min-id propagation).

        Returns ``(vertex, component)`` where the component label is
        the smallest vertex id in the component — the same labeling as
        the reference and the other platforms.
        """

        def initial(vertex: int) -> tuple[int, bool]:
            return (vertex, True)  # (component, changed-last-round)

        def vprog(vertex: int, value, incoming) -> tuple[int, bool]:
            component, _changed = value
            if incoming is not None and incoming < component:
                return (incoming, True)
            return (component, False)

        def send(src: int, src_value, dst: int) -> list[tuple[int, Any]]:
            component, changed = src_value
            if changed:
                return [(dst, component)]
            return []

        result = self.pregel(initial, vprog, send, min)
        return result.map_values(lambda value: value[0], name="components")
