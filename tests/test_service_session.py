"""Unit tests for the session layer: fingerprints, caches, eviction.

The end-to-end guarantees (byte-identity with the direct path, batcher
coalescing) live in ``test_service_differential.py`` and
``test_service_stress.py``; this file pins the mechanisms they rest on.
"""

import pytest

from repro.checkers.config import CheckerConfig
from repro.constraints.parser import parse_constraints
from repro.dtd.model import DTD
from repro.encoding.combined import spec_fingerprint
from repro.errors import ReproError
from repro.ilp.condsys import effective_parallelism
from repro.service.registry import SessionRegistry, default_registry
from repro.service.session import SpecSession, merge_config
from repro.workloads.generators import wide_flat_dtd


def _spec(tag: str = "a"):
    dtd = DTD.build(
        "db",
        {"db": f"({tag}*)", tag: "EMPTY"},
        attrs={tag: ["id"]},
    )
    return dtd, parse_constraints(f"{tag}.id -> {tag}")


class TestFingerprint:
    def test_stable_across_equal_specs(self):
        dtd_a, sigma_a = _spec()
        dtd_b, sigma_b = _spec()
        assert spec_fingerprint(dtd_a, sigma_a) == spec_fingerprint(
            dtd_b, sigma_b
        )

    def test_sensitive_to_constraints_and_order(self):
        dtd = wide_flat_dtd(3)
        sigma = parse_constraints("t0.x <= t1.x\nt1.x <= t2.x")
        reordered = [sigma[1], sigma[0]]
        assert spec_fingerprint(dtd, sigma) != spec_fingerprint(dtd, [])
        # Order is part of the identity: order-sensitive consumers (MUS
        # filters, row ids) must never see another ordering's session.
        assert spec_fingerprint(dtd, sigma) != spec_fingerprint(dtd, reordered)

    def test_sensitive_to_dtd(self):
        dtd_a, sigma = _spec()
        dtd_b = DTD.build("db", {"db": "(a+)", "a": "EMPTY"}, attrs={"a": ["id"]})
        assert spec_fingerprint(dtd_a, sigma) != spec_fingerprint(dtd_b, sigma)


class TestResponseCache:
    def test_repeat_requests_hit_the_cache(self):
        dtd, sigma = _spec()
        session = SpecSession(dtd, sigma)
        first = session.check()
        again = session.check()
        assert first == again
        assert session.stats.cache_hits == 1
        assert session.stats.requests == 2

    def test_different_config_is_a_different_entry(self):
        dtd, sigma = _spec()
        session = SpecSession(dtd, sigma)
        session.check()
        session.check({"want_witness": False})
        assert session.stats.cache_hits == 0

    def test_cache_is_bounded(self):
        dtd, sigma = _spec()
        session = SpecSession(dtd, sigma, max_cached_responses=2)
        documents = [f"<db><a id='{i}'/></db>" for i in range(4)]
        for document in documents:
            session.validate(document)
        assert len(session._responses) == 2
        # The evicted entry recomputes (same bytes), no crash.
        assert session.validate(documents[0])["conforms"] is True

    def test_merge_config_rejects_unknown_keys(self):
        with pytest.raises(ReproError, match="unknown config override"):
            merge_config(CheckerConfig(), {"no_such_knob": 1})
        # The reference-engine switches are test oracles now, not config.
        for name in ("incremental", "exact_warm"):
            with pytest.raises(ReproError, match="unknown config override"):
                merge_config(CheckerConfig(), {name: False})

    @pytest.mark.parametrize(
        "overrides, match",
        [
            (5, "config must be an object"),
            (["jobs", 2], "config must be an object"),
            ({"max_setrep_attrs": "3"}, "'max_setrep_attrs' must be an integer >= 0"),
            ({"max_setrep_attrs": -1}, "'max_setrep_attrs' must be an integer >= 0"),
            ({"jobs": "2"}, "'jobs' must be an integer >= 1"),
            ({"jobs": 0}, "'jobs' must be an integer >= 1"),
            ({"jobs": True}, "'jobs' must be an integer >= 1"),
            ({"max_support_nodes": "x"}, "'max_support_nodes' must be an integer"),
            ({"want_witness": "no"}, "'want_witness' must be a boolean"),
            ({"lp_prune": 1}, "'lp_prune' must be a boolean"),
            ({"backend": "gurobi"}, "'backend' must be one of"),
        ],
    )
    def test_merge_config_rejects_mistyped_values(self, overrides, match):
        with pytest.raises(ReproError, match=match):
            merge_config(CheckerConfig(), overrides)

    def test_merge_config_accepts_well_typed_values(self):
        merged = merge_config(
            CheckerConfig(),
            {"max_setrep_attrs": 0, "jobs": 3, "backend": "exact", "lp_prune": False},
        )
        assert (merged.max_setrep_attrs, merged.jobs) == (0, 3)
        assert (merged.backend, merged.lp_prune) == ("exact", False)

    def test_session_rejects_a_non_object_config(self):
        session = SpecSession(*_spec())
        with pytest.raises(ReproError, match="config must be an object"):
            session.check(5)
        with pytest.raises(ReproError, match="'jobs' must be an integer"):
            session.implies_batch(["a.id -> a"], {"jobs": "2"})
        # The adaptive marker is still a valid jobs value.
        assert session.check({"jobs": "auto"})["consistent"] is True

    def test_perform_caps_jobs_without_forking(self, monkeypatch):
        import repro.checkers.implication as implication
        import repro.ilp.condsys as condsys
        from repro.service.protocol import ProtocolError, perform

        class _NoPool(condsys.WorkerPool):
            def __init__(self, *args, **kwargs):
                raise AssertionError("a worker pool was built")

        monkeypatch.setattr(condsys, "WorkerPool", _NoPool)
        monkeypatch.setattr(implication, "WorkerPool", _NoPool)
        session = SpecSession(*_spec())
        cap = max(2, effective_parallelism(), session.config.jobs)
        request = {
            "op": "implies_all",
            "phis": ["a.id -> a"] * (cap + 8),
            "config": {"jobs": cap + 1},
        }
        with pytest.raises(ProtocolError, match=f"cap of {cap}"):
            perform(session, request)
        request["config"] = {"jobs": 1}
        results = perform(session, request)["results"]
        assert all(result["implied"] for result in results)
        # Coalesced `implies` batches skip perform; they apply the cap too.
        from repro.service.server import CheckingServer, _SessionQueue

        queue = _SessionQueue(CheckingServer(SessionRegistry()), "key")
        with pytest.raises(ProtocolError, match=f"cap of {cap}"):
            queue._run_batch(session, ["a.id -> a"] * 3, {"jobs": cap + 1}, None)


class TestBatch:
    def test_batch_equals_singles_and_caches(self):
        dtd = wide_flat_dtd(4)
        sigma = parse_constraints("t0.x <= t1.x\nt1.x <= t2.x")
        phis = ["t0.x <= t2.x", "t2.x <= t0.x", "t0.x <= t1.x"]
        batch_session = SpecSession(dtd, sigma)
        single_session = SpecSession(dtd, sigma)
        batch = batch_session.implies_batch(phis)
        singles = [single_session.implies(phi) for phi in phis]
        assert batch == singles
        # A repeat batch is served fully from the response cache.
        assert batch_session.implies_batch(phis) == batch
        assert batch_session.stats.cache_hits == len(phis)

    def test_batch_isolates_per_query_errors(self):
        dtd, sigma = _spec()
        batch = SpecSession(dtd, sigma).implies_batch(
            ["a.id -> a", "nosuch.attr -> nosuch", "not ( a constraint"]
        )
        assert batch[0]["implied"] is True
        assert batch[1]["error"]["type"] == "InvalidConstraintError"
        assert batch[2]["error"]["type"] == "ParseError"


class TestRegistry:
    def test_lru_eviction_by_count(self):
        registry = SessionRegistry(max_sessions=2)
        sessions = [
            registry.session_for(*_spec(tag)) for tag in ("a", "b", "c")
        ]
        stats = registry.core_stats()
        assert stats["sessions"] == 2
        assert stats["sessions_evicted"] == 1
        assert registry.get(sessions[0].fingerprint) is None
        assert registry.get(sessions[2].fingerprint) is sessions[2]

    def test_hit_moves_to_front(self):
        registry = SessionRegistry(max_sessions=2)
        first = registry.session_for(*_spec("a"))
        registry.session_for(*_spec("b"))
        assert registry.session_for(*_spec("a")) is first  # refresh LRU
        registry.session_for(*_spec("c"))  # evicts b, not a
        assert registry.get(first.fingerprint) is first
        assert registry.core_stats()["session_hits"] >= 2

    def test_byte_budget_eviction(self):
        registry = SessionRegistry(max_sessions=8, max_bytes=1)
        registry.session_for(*_spec("a"))
        registry.session_for(*_spec("b"))
        stats = registry.core_stats()
        # Over budget: everything but the newest admission is evicted.
        assert stats["sessions"] == 1
        assert stats["sessions_evicted"] == 1

    def test_readmission_after_eviction(self):
        registry = SessionRegistry(max_sessions=1)
        first = registry.session_for(*_spec("a"))
        answer = first.check()
        registry.session_for(*_spec("b"))
        assert registry.get(first.fingerprint) is None
        readmitted = registry.session_for(*_spec("a"))
        assert readmitted is not first
        assert readmitted.fingerprint == first.fingerprint
        assert readmitted.check() == answer

    def test_default_registry_is_a_singleton(self):
        assert default_registry() is default_registry()


def test_effective_parallelism_is_positive():
    assert effective_parallelism() >= 1
