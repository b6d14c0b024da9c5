"""Shared-memory CompactGraph: lifecycle, facade parity, serving identity.

The shared-graph path (``repro.kg.shm`` + ``CompactGraph.to_shared`` /
``from_handle`` + ``QueryService.build(shared_graph=True)``) makes three
promises this suite pins:

1. **Lifecycle** — the owner's close/unlink is idempotent, no
   ``/dev/shm`` segment outlives its owning service, and attaching after
   the owner released the segment fails with a clear ``GraphError``
   (not a raw OS error).
2. **Facade parity** — ``CompactKnowledgeGraph`` duck-types the
   ``KnowledgeGraph`` read surface over the shared columns with
   identical ordering semantics, so matchers, decomposition and views
   behave bit-identically against it.
3. **Serving identity** — the shm-backed process backend returns results
   bit-identical to the inline reference while shipping workers an
   O(metadata) spec.

Plus the free-threading satellite: ``NodeMatcher`` memo writes are
locked, hammered here from many threads.
"""

import pickle
import threading

import numpy as np
import pytest

from repro.bench.equivalence import final_matches_differ
from repro.errors import GraphError, ServeError, UnknownEntityError
from repro.kg.compact import CompactGraph, CompactKnowledgeGraph
from repro.kg.shm import ShmArrayBlock, leaked_segments
from repro.serve.service import QueryService

K = 5


@pytest.fixture(autouse=True)
def _no_segment_leaks():
    """Every test in this file must leave /dev/shm exactly as it found it."""
    before = set(leaked_segments())
    yield
    assert set(leaked_segments()) == before


class TestShmArrayBlock:
    def test_create_attach_roundtrip(self):
        arrays = {
            "a": np.arange(17, dtype=np.int64),
            "b": np.array([], dtype=np.int32),
            "c": np.array([True, False, True]),
        }
        block = ShmArrayBlock.create(arrays)
        try:
            attached = ShmArrayBlock.attach(block.handle)
            for key, source in arrays.items():
                view = attached.array(key)
                assert np.array_equal(view, source), key
                assert not view.flags.writeable
            attached.close()
        finally:
            block.close()
            block.unlink()

    def test_column_offsets_are_aligned(self):
        block = ShmArrayBlock.create(
            {"x": np.arange(3, dtype=np.int8), "y": np.arange(5)}
        )
        try:
            assert all(s.offset % 64 == 0 for s in block.handle.specs)
        finally:
            block.close()
            block.unlink()

    def test_owner_close_unlink_idempotent(self):
        block = ShmArrayBlock.create({"x": np.arange(4)})
        block.close()
        block.close()
        block.unlink()
        block.unlink()
        assert block.closed

    def test_attacher_cannot_unlink(self):
        block = ShmArrayBlock.create({"x": np.arange(4)})
        try:
            attached = ShmArrayBlock.attach(block.handle)
            with pytest.raises(GraphError, match="owning process"):
                attached.unlink()
            attached.close()
        finally:
            block.close()
            block.unlink()

    def test_attach_after_owner_release_raises_grapherror(self):
        block = ShmArrayBlock.create({"x": np.arange(4)})
        handle = block.handle
        block.close()
        block.unlink()
        with pytest.raises(GraphError, match="gone"):
            ShmArrayBlock.attach(handle)

    def test_closed_block_serves_no_views(self):
        block = ShmArrayBlock.create({"x": np.arange(4)})
        block.close()
        block.unlink()
        with pytest.raises(GraphError, match="closed"):
            block.array("x")

    def test_unknown_column_raises(self):
        block = ShmArrayBlock.create({"x": np.arange(4)})
        try:
            with pytest.raises(GraphError, match="no column"):
                block.array("y")
        finally:
            block.close()
            block.unlink()


class TestSharedCompactGraph:
    def test_attached_arrays_match_owner(self, small_bundle):
        frozen = CompactGraph.freeze(small_bundle.kg)
        with frozen.to_shared() as lease:
            attached = CompactGraph.from_handle(lease.handle)
            assert attached.shared and not frozen.shared
            for name in (
                "entity_type", "edge_source", "edge_target",
                "edge_predicate", "indptr", "slot_neighbor",
                "slot_predicate", "slot_edge", "slot_forward",
                "name_blob", "name_offsets",
            ):
                owner_col = getattr(frozen, name)
                view = getattr(attached, name)
                assert np.array_equal(view, owner_col), name
                assert not view.flags.writeable, name
            # Derived state rebuilds lazily to the same values.
            assert attached.entity_names() == frozen.entity_names()
            assert attached.node_slots[0] == frozen.node_slots[0]

    def test_lease_close_is_idempotent(self, small_bundle):
        lease = CompactGraph.freeze(small_bundle.kg).to_shared()
        assert not lease.closed
        lease.close()
        lease.close()
        assert lease.closed

    def test_attach_after_lease_close_raises(self, small_bundle):
        lease = CompactGraph.freeze(small_bundle.kg).to_shared()
        handle = pickle.loads(pickle.dumps(lease.handle))
        lease.close()
        with pytest.raises(GraphError, match="owning service closed it"):
            CompactGraph.from_handle(handle)

    def test_finalizer_releases_dropped_lease(self, small_bundle):
        # An owner that forgets close() must not leak /dev/shm entries:
        # the weakref.finalize guard fires at collection.
        import gc

        lease = CompactGraph.freeze(small_bundle.kg).to_shared()
        name = lease.name
        assert name in leaked_segments()
        del lease
        gc.collect()
        assert name not in leaked_segments()


class TestCompactKnowledgeGraphFacade:
    @pytest.fixture(scope="class")
    def facade(self, small_bundle):
        frozen = CompactGraph.freeze(small_bundle.kg)
        with frozen.to_shared() as lease:
            yield CompactKnowledgeGraph(CompactGraph.from_handle(lease.handle))

    def test_entity_surface_parity(self, small_bundle, facade):
        kg = small_bundle.kg
        assert facade.name == kg.name
        assert facade.num_entities == kg.num_entities
        assert facade.num_edges == kg.num_edges
        assert [
            (e.uid, e.name, e.etype) for e in facade.entities()
        ] == [(e.uid, e.name, e.etype) for e in kg.entities()]
        assert facade.entity(0) == kg.entity(0)
        with pytest.raises(UnknownEntityError):
            facade.entity(kg.num_entities)

    def test_index_surface_parity(self, small_bundle, facade):
        kg = small_bundle.kg
        assert facade.types() == kg.types()
        assert facade.predicates() == kg.predicates()
        for etype in kg.types():
            assert facade.entities_of_type(etype) == kg.entities_of_type(etype)
        for predicate in kg.predicates():
            assert facade.predicate_frequency(
                predicate
            ) == kg.predicate_frequency(predicate)
        sample = kg.entity(0)
        assert facade.entities_named(sample.name) == kg.entities_named(
            sample.name
        )

    def test_traversal_surface_parity(self, small_bundle, facade):
        kg = small_bundle.kg
        step = max(kg.num_entities // 25, 1)
        for uid in range(0, kg.num_entities, step):
            assert facade.incident_list(uid) == kg.incident_list(uid)
            assert list(facade.incident(uid)) == list(kg.incident(uid))
            assert facade.out_incident(uid) == kg.out_incident(uid)
            assert facade.in_incident(uid) == kg.in_incident(uid)
            assert facade.out_edges(uid) == kg.out_edges(uid)
            assert facade.in_edges(uid) == kg.in_edges(uid)
            assert facade.degree(uid) == kg.degree(uid)
            assert facade.neighbors(uid) == kg.neighbors(uid)

    def test_aggregate_surface_parity(self, small_bundle, facade):
        kg = small_bundle.kg
        assert facade.statistics() == kg.statistics()
        assert sorted(facade.triples()) == sorted(kg.triples())
        edge = kg.out_edges(next(
            uid for uid in range(kg.num_entities) if kg.out_edges(uid)
        ))[0]
        assert facade.has_edge(edge.source, edge.predicate, edge.target)
        assert not facade.has_edge(edge.target, edge.predicate, edge.source) \
            or kg.has_edge(edge.target, edge.predicate, edge.source)


class TestSharedGraphService:
    def test_shared_graph_requires_process_backend(self, small_bundle):
        with pytest.raises(ServeError, match="process backend"):
            QueryService.build(
                small_bundle.kg, small_bundle.space, small_bundle.library,
                backend="thread", shared_graph=True,
            )

    def test_no_segment_outlives_the_service(self, small_bundle):
        service = QueryService.build(
            small_bundle.kg, small_bundle.space, small_bundle.library,
            backend="process", workers=2, shared_graph=True,
        )
        lease = service.graph_lease
        assert lease is not None
        assert lease.name in leaked_segments()
        service.close()
        service.close()  # close is idempotent, lease close included
        assert lease.closed
        assert lease.name not in leaked_segments()

    def test_spec_ships_handle_not_graph(self, small_bundle):
        with QueryService.build(
            small_bundle.kg, small_bundle.space, small_bundle.library,
            backend="process", workers=2, shared_graph=True,
        ) as service:
            spec = service.spec
            assert spec.kg is None
            assert spec.compact_graph is None
            assert spec.graph_handle is not None
            with QueryService.build(
                small_bundle.kg, small_bundle.space, small_bundle.library,
                backend="process", workers=2,
            ) as baseline:
                arrays_bytes = len(pickle.dumps(baseline.spec))
            handle_bytes = len(pickle.dumps(spec))
            assert handle_bytes * 10 <= arrays_bytes, (
                handle_bytes, arrays_bytes,
            )

    def test_results_bit_identical_to_inline(self, small_bundle):
        queries = [q.query for q in small_bundle.workload[:4]]
        labels = [q.qid for q in small_bundle.workload[:4]]
        with QueryService.build(
            small_bundle.kg, small_bundle.space, small_bundle.library,
            backend="inline",
        ) as reference_service:
            reference = reference_service.search_many(queries, k=K)
        with QueryService.build(
            small_bundle.kg, small_bundle.space, small_bundle.library,
            backend="process", workers=2, shared_graph=True,
        ) as service:
            assert service.warmup(timeout=60) >= 1
            for run in (1, 2):  # warm pass must not change results either
                results = service.search_many(queries, k=K)
                for label, expected, actual in zip(
                    labels, reference, results
                ):
                    problem = final_matches_differ(
                        f"shm-pass{run}:{label}", expected.matches,
                        actual.matches,
                    )
                    assert problem is None, problem
                    assert expected.ta_accesses == actual.ta_accesses


class TestNodeMatcherThreadSafety:
    def test_concurrent_memo_hammer_is_consistent(self, small_bundle):
        """Many threads asking φ concurrently: no exceptions, and every
        verdict agrees with a fresh single-threaded matcher."""
        from repro.query.builder import QueryGraphBuilder
        from repro.query.transform import NodeMatcher

        kg, library = small_bundle.kg, small_bundle.library
        query = (
            QueryGraphBuilder()
            .target("v1", "Automobile")
            .specific("v2", "Germany", "Country")
            .edge("e1", "v1", "product", "v2")
            .build()
        )
        nodes = list(query.nodes())
        shared = NodeMatcher(kg, library)
        uids = range(0, kg.num_entities, max(kg.num_entities // 200, 1))
        errors = []
        barrier = threading.Barrier(8)

        def hammer():
            try:
                barrier.wait()
                for _ in range(20):
                    for node in nodes:
                        shared.matches(node)
                        for uid in uids:
                            shared.is_match(node, uid)
            except Exception as exc:  # pragma: no cover - the assertion
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors

        fresh = NodeMatcher(kg, library)
        for node in nodes:
            assert shared.matches(node) == fresh.matches(node)
            for uid in uids:
                assert shared.is_match(node, uid) == fresh.is_match(node, uid)
