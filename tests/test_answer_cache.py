"""Answer-cache suite: canonical keys, LRU/TTL, singleflight, composition.

Covers the three claims the result-level cache makes:

1. :func:`~repro.serve.answer_cache.canonicalize` is a *canonical form* —
   node-order permutations and alias spellings of the same query collapse
   to one picklable key, while anything result-relevant (``k``, τ,
   visited policy, pivot, strategy, predicates) keeps keys apart;
2. :class:`~repro.serve.answer_cache.AnswerCache` is a correct bounded
   LRU (+ TTL) with a singleflight protocol: N concurrent identical
   misses run the engine exactly once;
3. composed into :class:`~repro.serve.service.QueryService`, a hit is
   bit-identical to recomputation, bypasses TBQ by design, and — under
   supervision — consumes no retry budget and is never shed by
   ``max_pending`` admission (it never becomes a backend attempt).
"""

import contextlib
import pickle
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.equivalence import final_matches_differ
from repro.core.config import SearchConfig, VisitedPolicy
from repro.core.engine import EngineSpec
from repro.errors import OverloadError, ServeError
from repro.kg.compact import CompactGraph
from repro.kg.schema import preset_schema
from repro.query.builder import QueryGraphBuilder
from repro.query.model import QueryGraph
from repro.query.transform import TransformationLibrary
from repro.scenarios.suite import WorkloadBuilder
from repro.serve.answer_cache import (
    AnswerCache,
    CanonicalQueryKey,
    EngineFingerprint,
    canonicalize,
)
from repro.serve.service import QueryRequest, QueryService

K = 5


def _fingerprint(library=None, config=None, graph=("kg", "test", 100, 400)):
    token = (graph, ("space", 12, 16), EngineFingerprint._config_token(config))
    return EngineFingerprint(token, library=library)


def _product_query(target_type="Automobile", name="Germany", name_type="Country"):
    return (
        QueryGraphBuilder()
        .target("v1", target_type)
        .specific("v2", name, name_type)
        .edge("e1", "v1", "product", "v2")
        .build()
    )


def _flipped_product_query():
    """Same query as :func:`_product_query`, nodes declared in reverse."""
    return (
        QueryGraphBuilder()
        .specific("v2", "Germany", "Country")
        .target("v1", "Automobile")
        .edge("e1", "v1", "product", "v2")
        .build()
    )


def _request(query, **kwargs):
    kwargs.setdefault("k", K)
    return QueryRequest(query=query, **kwargs)


@pytest.fixture(scope="module")
def dbpedia_library():
    return TransformationLibrary.from_schema(preset_schema("dbpedia"))


# ----------------------------------------------------------------------
# canonicalization
# ----------------------------------------------------------------------

class TestCanonicalQueryKey:
    def test_identical_requests_share_a_key(self):
        fp = _fingerprint()
        a = canonicalize(_request(_product_query()), fp)
        b = canonicalize(_request(_product_query()), fp)
        assert a == b
        assert hash(a) == hash(b)

    def test_node_order_permutation_collapses(self):
        fp = _fingerprint()
        a = canonicalize(_request(_product_query()), fp)
        b = canonicalize(_request(_flipped_product_query()), fp)
        assert a == b

    def test_alias_spellings_collapse_through_the_library(self, dbpedia_library):
        fp = _fingerprint(library=dbpedia_library)
        canonical = canonicalize(_request(_product_query()), fp)
        # "Car" is a synonym of "Automobile"; "GER" abbreviates "Germany".
        paraphrase = canonicalize(
            _request(_product_query(target_type="Car", name="GER")), fp
        )
        assert canonical == paraphrase

    def test_without_a_library_aliases_stay_distinct(self):
        fp = _fingerprint(library=None)
        a = canonicalize(_request(_product_query()), fp)
        b = canonicalize(_request(_product_query(target_type="Car")), fp)
        assert a != b

    def test_predicate_paraphrases_never_collapse(self, dbpedia_library):
        """Predicates match via the embedding space, not the library —
        two spellings may rank candidates differently, so they must not
        share an answer."""
        fp = _fingerprint(library=dbpedia_library)
        product = (
            QueryGraphBuilder()
            .target("v1", "Automobile")
            .specific("v2", "Germany", "Country")
            .edge("e1", "v1", "product", "v2")
            .build()
        )
        assembly = (
            QueryGraphBuilder()
            .target("v1", "Automobile")
            .specific("v2", "Germany", "Country")
            .edge("e1", "v1", "assembly", "v2")
            .build()
        )
        assert canonicalize(_request(product), fp) != canonicalize(
            _request(assembly), fp
        )

    def test_k_enters_the_key(self):
        fp = _fingerprint()
        assert canonicalize(_request(_product_query(), k=5), fp) != canonicalize(
            _request(_product_query(), k=6), fp
        )

    def test_tau_enters_the_key(self):
        low = _fingerprint(config=SearchConfig(tau=0.5))
        high = _fingerprint(config=SearchConfig(tau=0.9))
        request = _request(_product_query())
        assert canonicalize(request, low) != canonicalize(request, high)

    def test_visited_policy_enters_the_key(self):
        expand = _fingerprint(
            config=SearchConfig(visited_policy=VisitedPolicy.EXPAND)
        )
        generate = _fingerprint(
            config=SearchConfig(visited_policy=VisitedPolicy.GENERATE)
        )
        request = _request(_product_query())
        assert canonicalize(request, expand) != canonicalize(request, generate)

    def test_graph_epoch_enters_the_key(self):
        request = _request(_product_query())
        a = canonicalize(request, _fingerprint(graph=("kg", "test", 100, 400)))
        b = canonicalize(request, _fingerprint(graph=("kg", "test", 101, 404)))
        assert a != b

    def test_explicit_pivot_is_keyed_positionally(self):
        fp = _fingerprint()
        base = canonicalize(_request(_product_query()), fp)
        on_v1 = canonicalize(_request(_product_query(), pivot="v1"), fp)
        on_v2 = canonicalize(_request(_product_query(), pivot="v2"), fp)
        assert base != on_v1
        assert on_v1 != on_v2
        # The *position* is canonical: the same pivot forced on a
        # permuted spelling still shares the key.
        flipped = canonicalize(_request(_flipped_product_query(), pivot="v2"), fp)
        assert on_v2 == flipped

    def test_random_strategy_pins_declaration_order(self):
        """The random pivot draw consumes declaration order, so permuted
        spellings must not collapse — identical requests still do."""
        fp = _fingerprint()
        a = canonicalize(_request(_product_query(), strategy="random"), fp)
        b = canonicalize(_request(_product_query(), strategy="random"), fp)
        flipped = canonicalize(
            _request(_flipped_product_query(), strategy="random"), fp
        )
        plain = canonicalize(_request(_product_query()), fp)
        assert a == b
        assert a != flipped
        assert a != plain
        assert a.labels == ("v1", "v2")

    def test_deadline_requests_are_rejected(self):
        with pytest.raises(ServeError):
            canonicalize(_request(_product_query(), deadline=0.5), _fingerprint())

    def test_key_pickles_stably(self):
        key = canonicalize(_request(_product_query()), _fingerprint())
        clone = pickle.loads(pickle.dumps(key))
        assert clone == key
        assert hash(clone) == hash(key)
        assert {key: "answer"}[clone] == "answer"

    def test_fingerprint_matches_is_identity_or_equality(self, small_bundle):
        from repro.core.engine import SemanticGraphQueryEngine

        engine = SemanticGraphQueryEngine(
            small_bundle.kg, small_bundle.space, small_bundle.library
        )
        a = EngineFingerprint.from_engine(engine)
        b = EngineFingerprint.from_engine(engine)
        assert a.matches(b)
        assert not a.matches(_fingerprint())


class TestCanonicalizationProperties:
    """Hypothesis: the invariants hold over generated scenario queries."""

    @pytest.fixture(scope="class")
    def workload_queries(self):
        workload = (
            WorkloadBuilder("answer-cache-props", seed=13)
            .domain("dbpedia")
            .intents(star=2, chain=2, tau_stress=1)
            .top_k(K)
            .build()
        )
        return [q.query for q in workload.queries]

    @pytest.fixture(scope="class")
    def library(self):
        return TransformationLibrary.from_schema(preset_schema("dbpedia"))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_permutation_invariance(self, workload_queries, library, data):
        query = data.draw(st.sampled_from(workload_queries))
        nodes = list(query.nodes())
        permuted = QueryGraph(
            data.draw(st.permutations(nodes)), list(query.edges())
        )
        fp = _fingerprint(library=library)
        assert canonicalize(_request(query), fp) == canonicalize(
            _request(permuted), fp
        )

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), delta=st.integers(min_value=1, max_value=20))
    def test_k_inequality(self, workload_queries, data, delta):
        query = data.draw(st.sampled_from(workload_queries))
        fp = _fingerprint()
        assert canonicalize(_request(query, k=K), fp) != canonicalize(
            _request(query, k=K + delta), fp
        )

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_pickle_stability(self, workload_queries, library, data):
        query = data.draw(st.sampled_from(workload_queries))
        key = canonicalize(_request(query), _fingerprint(library=library))
        clone = pickle.loads(pickle.dumps(key))
        assert clone == key
        assert hash(clone) == hash(key)


# ----------------------------------------------------------------------
# the cache data structure
# ----------------------------------------------------------------------

def _key(i):
    return CanonicalQueryKey(
        fingerprint=("epoch",),
        nodes=(),
        predicates=(),
        edges=(),
        k=i,
        strategy="min_cost",
    )


class TestAnswerCacheUnit:
    def test_capacity_and_ttl_validated(self):
        with pytest.raises(ServeError):
            AnswerCache(0)
        with pytest.raises(ServeError):
            AnswerCache(4, ttl_seconds=0.0)

    def test_lru_eviction_honours_recency(self):
        cache = AnswerCache(2)
        cache.store(_key(1), "one")
        cache.store(_key(2), "two")
        assert cache.lookup(_key(1)) == "one"  # touch 1 -> 2 is oldest
        cache.store(_key(3), "three")
        assert cache.lookup(_key(2)) is None
        assert cache.lookup(_key(1)) == "one"
        assert cache.lookup(_key(3)) == "three"
        assert cache.stats().evictions == 1

    def test_ttl_expiry_counts_and_drops(self):
        now = [0.0]
        cache = AnswerCache(4, ttl_seconds=10.0, clock=lambda: now[0])
        cache.store(_key(1), "one")
        now[0] = 9.9
        assert cache.lookup(_key(1)) == "one"
        now[0] = 10.0
        assert cache.lookup(_key(1)) is None
        stats = cache.stats()
        assert stats.expirations == 1
        assert stats.entries == 0
        # An expired entry classifies the next acquire as a fresh lead.
        state, _ = cache.acquire(_key(1))
        assert state == "lead"

    def test_bind_self_clears_on_epoch_change(self):
        cache = AnswerCache(4)
        cache.bind(_fingerprint())
        cache.store(_key(1), "one")
        cache.bind(_fingerprint())  # same token: entries survive
        assert len(cache) == 1
        cache.bind(_fingerprint(graph=("kg", "other", 7, 9)))
        assert len(cache) == 0
        assert cache.stats().invalidations == 1

    def test_singleflight_protocol(self):
        cache = AnswerCache(4)
        state, flight = cache.acquire(_key(1))
        assert state == "lead"
        state, future = cache.acquire(_key(1))
        assert state == "follow"
        assert not future.done()
        followers, payload, error = cache.complete(flight, payload="answer")
        assert followers == [future]
        assert (payload, error) == ("answer", None)
        state, value = cache.acquire(_key(1))
        assert (state, value) == ("hit", "answer")
        stats = cache.stats()
        assert stats.misses == 1
        assert stats.singleflight_collapsed == 1
        assert stats.hits == 1
        assert stats.in_flight == 0

    def test_failed_flight_caches_nothing(self):
        cache = AnswerCache(4)
        _, flight = cache.acquire(_key(1))
        boom = RuntimeError("boom")
        followers, payload, error = cache.complete(flight, error=boom)
        assert (followers, payload, error) == ([], None, boom)
        state, _ = cache.acquire(_key(1))
        assert state == "lead"
        assert len(cache) == 0


# ----------------------------------------------------------------------
# service integration
# ----------------------------------------------------------------------

class TestEngineFingerprintFromSpec:
    """``from_spec`` stamps the process backend's cache epoch."""

    @pytest.mark.parametrize(
        "form, head",
        [("kg", "kg"), ("compact_graph", "kg"), ("graph_handle", "handle")],
    )
    def test_graph_token_per_spec_form(self, small_bundle, form, head):
        """A ``compact_graph`` spec always carries ``kg`` too, so it is
        keyed like the plain spec: freezing a kernel into the spec keeps
        the epoch.  A handle spec is keyed by the published graph, and a
        fresh segment for the same frozen graph — what a pool rebuild
        publishes — keeps the token."""
        kg, space = small_bundle.kg, small_bundle.space
        frozen = CompactGraph.freeze(kg)

        def fingerprint(config=None):
            with contextlib.ExitStack() as stack:
                graph = {"kg": kg}
                if form == "compact_graph":
                    graph.update(compact_graph=frozen)
                elif form == "graph_handle":
                    lease = stack.enter_context(frozen.to_shared())
                    graph = {"kg": None, "graph_handle": lease.handle}
                spec = EngineSpec(
                    space=space, library=small_bundle.library,
                    config=config, **graph,
                )
                return EngineFingerprint.from_spec(spec)

        first = fingerprint()
        assert first.token[0] == (head, kg.name, kg.num_entities, kg.num_edges)
        assert first.token[1] == ("space", len(space), space.dim)
        assert fingerprint().token == first.token
        retuned = fingerprint(SearchConfig(tau=SearchConfig().tau / 2))
        assert retuned.token != first.token
        assert retuned.token[0] == first.token[0]


def _assert_same_answer(expected, actual):
    problem = final_matches_differ("cache", expected.matches, actual.matches)
    assert problem is None, problem
    assert expected.answer_uids() == actual.answer_uids()


class TestServiceIntegration:
    def test_hit_is_bit_identical_and_counted(self, small_bundle):
        with QueryService.build(
            small_bundle.kg, small_bundle.space, small_bundle.library,
            backend="inline", answer_cache=8,
        ) as service:
            first = service.submit(_product_query(), k=K).result()
            second = service.submit(_product_query(), k=K).result()
            permuted = service.submit(_flipped_product_query(), k=K).result()
            snap = service.stats_snapshot()
        _assert_same_answer(first, second)
        _assert_same_answer(first, permuted)
        assert snap.answer_misses == 1
        assert snap.answer_hits == 2
        assert snap.completed == 3

    def test_tbq_requests_bypass_the_cache(self, small_bundle):
        with QueryService.build(
            small_bundle.kg, small_bundle.space, small_bundle.library,
            backend="inline", answer_cache=8,
        ) as service:
            service.submit(_product_query(), k=K, deadline=0.5).result()
            service.submit(_product_query(), k=K, deadline=0.5).result()
            snap = service.stats_snapshot()
        assert snap.time_bounded == 2
        assert snap.answer_hits == 0
        assert snap.answer_misses == 0

    def test_answer_scope_stays_shared_over_the_process_pool(self, small_bundle):
        """Satellite (f): one front-side cache instance, so its counters
        are labelled "shared" even while the worker caches report a
        per-worker sum."""
        with QueryService.build(
            small_bundle.kg, small_bundle.space, small_bundle.library,
            backend="process", workers=2, answer_cache=8,
        ) as service:
            service.submit(_product_query(), k=K).result()
            service.submit(_product_query(), k=K).result()
            report = service.serving_stats()
        assert report.scope == "per-worker-sum"
        assert report.answer_scope == "shared"
        assert report.answers is not None
        assert report.answers.hits == 1
        described = report.describe()
        assert "answer cache (shared)" in described
        assert "per-worker sum" in described

    def test_shared_cache_survives_across_services(self, small_bundle):
        cache = AnswerCache(8)
        build = dict(backend="inline", answer_cache=cache)
        with QueryService.build(
            small_bundle.kg, small_bundle.space, small_bundle.library, **build
        ) as service:
            service.submit(_product_query(), k=K).result()
        assert len(cache) == 1
        # Same engine inputs -> same epoch: the second service hits warm.
        with QueryService.build(
            small_bundle.kg, small_bundle.space, small_bundle.library, **build
        ) as service:
            service.submit(_product_query(), k=K).result()
            assert service.stats_snapshot().answer_hits == 1
        # A different epoch self-clears instead of serving stale answers.
        cache.bind(_fingerprint(graph=("kg", "rebuilt", 1, 1)))
        assert len(cache) == 0
        assert cache.stats().invalidations == 1

    def test_cache_argument_validated(self, small_bundle):
        build = dict(backend="inline")
        with pytest.raises(ServeError):
            QueryService.build(
                small_bundle.kg, small_bundle.space, small_bundle.library,
                answer_cache_ttl=5.0, **build,
            )
        with pytest.raises(ServeError):
            QueryService.build(
                small_bundle.kg, small_bundle.space, small_bundle.library,
                answer_cache=AnswerCache(4), answer_cache_ttl=5.0, **build,
            )
        with pytest.raises(ServeError):
            QueryService.build(
                small_bundle.kg, small_bundle.space, small_bundle.library,
                answer_cache="big", **build,
            )


class TestSingleflight:
    def test_concurrent_identical_misses_run_the_engine_once(self, small_bundle):
        release = threading.Event()
        calls = []
        with QueryService.build(
            small_bundle.kg, small_bundle.space, small_bundle.library,
            backend="thread", workers=4, answer_cache=8,
        ) as service:
            engine = service.engine
            original = engine.search

            def gated(query, k=10, **kwargs):
                calls.append(threading.get_ident())
                assert release.wait(timeout=30)
                return original(query, k, **kwargs)

            engine.search = gated
            try:
                futures = [service.submit(_product_query(), k=K) for _ in range(8)]
                # Follower registration is front-side and synchronous:
                # by the time submit returns, the classification is done.
                snap = service.stats_snapshot()
                assert snap.answer_misses == 1
                assert snap.singleflight_collapsed == 7
                release.set()
                results = [f.result(timeout=60) for f in futures]
            finally:
                engine.search = original
            snap = service.stats_snapshot()
        assert len(calls) == 1
        assert snap.completed == 8
        assert snap.failed == 0
        for other in results[1:]:
            _assert_same_answer(results[0], other)

    def test_leader_failure_fails_followers_and_caches_nothing(self, small_bundle):
        release = threading.Event()
        with QueryService.build(
            small_bundle.kg, small_bundle.space, small_bundle.library,
            backend="thread", workers=2, answer_cache=8,
        ) as service:
            engine = service.engine
            original = engine.search

            def failing(query, k=10, **kwargs):
                assert release.wait(timeout=30)
                raise RuntimeError("engine exploded")

            engine.search = failing
            try:
                futures = [service.submit(_product_query(), k=K) for _ in range(4)]
                release.set()
                for future in futures:
                    with pytest.raises(RuntimeError):
                        future.result(timeout=60)
            finally:
                engine.search = original
            assert len(service.answer_cache) == 0
            snap = service.stats_snapshot()
            assert snap.failed == 4
            # A retry after the failure leads a fresh flight and succeeds.
            result = service.submit(_product_query(), k=K).result(timeout=60)
            assert service.stats_snapshot().answer_misses == 2
        assert result.answer_uids()


class TestSupervisedComposition:
    def test_hit_bypasses_admission_and_retry_budget(self, small_bundle):
        """A cached hit never becomes a backend attempt: it cannot be
        shed by ``max_pending`` and cannot spend retry budget, even while
        the pool is saturated."""
        hot = _product_query()
        cold = _product_query(name="France")
        shed_me = _product_query(name="Italy")
        release = threading.Event()
        with QueryService.build(
            small_bundle.kg, small_bundle.space, small_bundle.library,
            backend="thread", workers=1,
            answer_cache=8, max_pending=1,
        ) as service:
            service.submit(hot, k=K).result(timeout=60)  # prime the cache
            engine = service.engine
            original = engine.search

            def gated(query, k=10, **kwargs):
                assert release.wait(timeout=30)
                return original(query, k, **kwargs)

            engine.search = gated
            try:
                blocked = service.submit(cold, k=K)  # fills max_pending
                # A distinct miss is shed — admission really is full...
                with pytest.raises(OverloadError):
                    service.submit(shed_me, k=K)
                # ...but the cached request sails through front-side.
                hit = service.submit(hot, k=K).result(timeout=5)
            finally:
                release.set()
                blocked.result(timeout=60)
                engine.search = original
            snap = service.stats_snapshot()
        assert hit.answer_uids()
        assert snap.answer_hits == 1
        assert snap.shed == 1
        assert snap.retries == 0
        assert snap.failed == 1  # the shed request, nothing else
        assert snap.completed == 3
