"""The per-DTD caches of the served path, and what they must not change.

A request pays for its ``Sigma``, not for its DTD: the parsed DTD and its
canonical text are memoized per ``(dtd_text, root)``
(:meth:`repro.service.registry.SessionRegistry.parsed_dtd`), and the cached ``Psi_DN``
block carries its rows pre-assembled as a CSR prefix that
:func:`repro.ilp.assembled.assemble_arrays` reuses, an index of its
support clauses that each solve extends, the DTD's conformance checker,
the simplified DTD's occurrence list and an LP engine each solve leases.
These tests pin that the reuse is invisible: the arrays equal a
from-scratch assembly bit for bit, an extended clause index equals a
fresh one, fingerprints equal :func:`spec_fingerprint`, served bytes do
not depend on what the registry served before, a solve on a private
stand-in answers like one on the leased engine, and the block cache
survives concurrent eviction.
"""

from __future__ import annotations

import json
import sys
import threading
from collections import OrderedDict

import numpy as np
import pytest

from repro.constraints.parser import parse_constraints
from repro.dtd.model import DTD
from repro.dtd.parser import parse_dtd
from repro.dtd.serializer import dtd_to_string
from repro.encoding import combined
from repro.encoding.combined import (
    DTD_CACHE_LIMIT,
    build_encoding,
    clear_encoding_cache,
    encoding_cache_stats,
    spec_fingerprint,
)
from repro.errors import ReproError
from repro.ilp.assembled import AssembledSystem, assemble_arrays
from repro.ilp.condsys import _ClauseIndex
from repro.service import protocol
from repro.service.registry import SessionRegistry, fingerprint_for
from repro.workloads.examples import (
    recursive_dtd_d2,
    school_constraints_d3,
    school_dtd_d3,
    sigma1_constraints,
    teachers_dtd_d1,
)
from repro.workloads.generators import random_dtd, random_unary_constraints

#: The seeded instance family of the differential sweep.
FUZZ_SEEDS = range(200)


def _fuzz_instance(seed: int):
    dtd = random_dtd(seed, num_types=3 + seed % 3)
    sigma = random_unary_constraints(
        seed * 31 + 7,
        dtd,
        num_keys=seed % 3,
        num_fks=(seed + 1) % 3,
        num_neg_keys=seed % 2,
        num_neg_inclusions=(seed + 1) % 2,
    )
    return dtd, sigma


def _from_scratch(system):
    """``assemble_arrays`` with every row assembled (no prefix reuse)."""
    reference = system.copy()
    reference.row_prefix = None
    return assemble_arrays(reference)


def _assert_bit_identical(system) -> None:
    got, want = assemble_arrays(system), _from_scratch(system)
    for name, a, b in zip(
        ("indptr", "indices", "data", "row_lower", "row_upper", "var_lower", "var_upper"),
        got,
        want,
    ):
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


def _example_specs():
    return [
        (teachers_dtd_d1(), sigma1_constraints()),
        (teachers_dtd_d1(), []),
        (school_dtd_d3(), school_constraints_d3()),
        (recursive_dtd_d2(), []),
    ]


class TestPrefixAssembly:
    def test_fuzz_seeds_and_examples(self):
        clear_encoding_cache()
        specs = [_fuzz_instance(seed) for seed in FUZZ_SEEDS] + _example_specs()
        setreps = 0
        for dtd, sigma in specs:
            try:
                encoding = build_encoding(dtd, sigma)
            except ReproError:
                continue
            base = encoding.condsys.base
            prefix = base.row_prefix
            assert prefix is not None
            assert prefix.num_rows == combined._dtd_block(dtd).dtd_system.system.num_rows
            setreps += encoding.setrep is not None
            _assert_bit_identical(base)
        assert setreps, "no set-representation encoding was exercised"

    def test_repair_site_encodings(self):
        for dtd, sigma in [_fuzz_instance(seed) for seed in range(40)] + _example_specs():
            try:
                encoding = build_encoding(dtd, sigma, repair_sites=True)
            except ReproError:
                continue
            assert encoding.condsys.base.row_prefix is not None
            _assert_bit_identical(encoding.condsys.base)

    def test_copies_keep_or_drop_the_prefix(self):
        encoding = build_encoding(teachers_dtd_d1(), sigma1_constraints())
        base = encoding.condsys.base
        toggled = frozenset(encoding.condsys.toggleable_rows)
        assert toggled
        assert base.copy().row_prefix is base.row_prefix
        dropped = base.copy(drop_rows=toggled)
        assert dropped.row_prefix is None
        _assert_bit_identical(dropped)
        leaf = AssembledSystem(base).materialize(
            {("ext", "teacher"): (1, None)}, inactive_rows=frozenset()
        )
        assert leaf.row_prefix is base.row_prefix
        _assert_bit_identical(leaf)

    def test_the_shared_prefix_is_read_only(self):
        base = build_encoding(teachers_dtd_d1(), []).condsys.base
        with pytest.raises(ValueError):
            base.row_prefix.data[0] = 99.0
        assembled = AssembledSystem(base)
        assert assembled.data.flags.writeable


def _index_state(index: _ClauseIndex) -> tuple:
    """An index's content, key order included."""
    return (
        list(index.by_symbol.items()),
        list(index.by_premise.items()),
    )


def _reference_var_upper(system) -> np.ndarray:
    """Variable upper bounds from a loop over every variable."""
    upper = np.full(system.num_vars, np.inf)
    for var in system.variables:
        bound = system.upper(var)
        if bound is not None:
            upper[system.index_of(var)] = float(bound)
    return upper


class TestBlockStructures:
    """The clause index, validator and occurrence list built per block."""

    def test_extended_clause_index_equals_a_fresh_one(self):
        clear_encoding_cache()
        extended = 0
        for dtd, sigma in [_fuzz_instance(seed) for seed in FUZZ_SEEDS] + _example_specs():
            try:
                encoding = build_encoding(dtd, sigma)
            except ReproError:
                continue
            cs = encoding.condsys
            block = combined._dtd_block(dtd)
            assert cs.clause_prefix is block.clause_index
            assert cs.clauses[: len(block.clause_index.clauses)] == (
                block.dtd_system.clauses
            )
            got = _ClauseIndex(cs.clauses, cs.clause_prefix)
            assert _index_state(got) == _index_state(_ClauseIndex(cs.clauses))
            extended += len(cs.clauses) > len(block.dtd_system.clauses)
            assert (
                assemble_arrays(cs.base)[6].tobytes()
                == _reference_var_upper(cs.base).tobytes()
            )
        assert extended, "no encoding added C_Sigma clauses"

    def test_a_prefix_that_does_not_match_is_ignored(self):
        encoding = build_encoding(teachers_dtd_d1(), sigma1_constraints())
        cs = encoding.condsys
        assert cs.clause_prefix.clauses
        shifted = cs.clauses[1:]
        assert _index_state(_ClauseIndex(shifted, cs.clause_prefix)) == _index_state(
            _ClauseIndex(shifted)
        )

    def test_validator_and_occurrences_are_shared_per_dtd(self):
        clear_encoding_cache()
        first = build_encoding(teachers_dtd_d1(), sigma1_constraints())
        second = build_encoding(teachers_dtd_d1(), [])
        assert first.validator is second.validator
        assert first.simple.occurrences() is second.simple.occurrences()
        assert first.simple.occurrences() == tuple(
            (slot, symbol, tau)
            for tau in first.simple.types
            for slot, symbol in enumerate(first.simple.rules[tau].symbols(), start=1)
        )
        clear_encoding_cache()
        assert build_encoding(teachers_dtd_d1(), []).validator is not first.validator

    def test_witness_checks_build_each_automaton_once(self, monkeypatch):
        import repro.regex.glushkov as glushkov
        from repro.checkers.consistency import check_consistency
        from repro.service.session import SpecSession
        from repro.xmltree.serialize import tree_to_string

        built = []
        original = glushkov.GlushkovAutomaton.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(glushkov.GlushkovAutomaton, "__init__", counting)
        clear_encoding_cache()
        dtd, sigma = teachers_dtd_d1(), parse_constraints("teacher.name -> teacher")
        witness = check_consistency(dtd, sigma).witness
        first = len(built)
        assert first > 0
        for other in ("subject.taught_by -> subject", "teacher.name -> teacher"):
            assert check_consistency(dtd, parse_constraints(other)).witness
        assert len(built) == first  # the block's validator kept its automata
        session = SpecSession(dtd, sigma)
        document = tree_to_string(witness)
        for padding in range(5):
            assert session.validate(document + " " * padding)["conforms"]
        assert len(built) <= 2 * first  # once for the session, not per document
        clear_encoding_cache()


class TestBlockCacheLock:
    def test_eviction_between_lookup_and_reuse(self, monkeypatch):
        """A reader paused between finding its block and marking it used
        while another thread pushes ``DTD_CACHE_LIMIT + 1`` DTDs through
        the cache: the reader must neither raise nor lose a counter."""
        clear_encoding_cache()
        target = DTD.build("r", {"r": "(a*)", "a": "EMPTY"}, attrs={"a": ["k"]})
        build_encoding(target, [])
        target_key = combined._dtd_cache_key(target)
        fillers = [
            DTD.build("r", {"r": f"(t{i}*)", f"t{i}": "EMPTY"})
            for i in range(DTD_CACHE_LIMIT + 1)
        ]
        looked_up, evicted = threading.Event(), threading.Event()
        errors: list[BaseException] = []

        class PausingCache(OrderedDict):
            def get(self, key, default=None):
                found = super().get(key, default)
                if key == target_key and not looked_up.is_set():
                    looked_up.set()
                    # Under the lock the evictor cannot run, so this
                    # times out; without it the evictor empties the
                    # cache here.
                    evicted.wait(timeout=0.5)
                return found

        monkeypatch.setattr(
            combined, "_DTD_BLOCK_CACHE", PausingCache(combined._DTD_BLOCK_CACHE)
        )

        def read():
            try:
                build_encoding(target, [])
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        def evict():
            looked_up.wait(timeout=5.0)
            for filler in fillers:
                build_encoding(filler, [])
            evicted.set()

        threads = [threading.Thread(target=read), threading.Thread(target=evict)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not errors, errors
        stats = encoding_cache_stats()
        assert stats["hits"] + stats["misses"] == 2 + len(fillers)
        assert len(combined._DTD_BLOCK_CACHE) <= DTD_CACHE_LIMIT
        clear_encoding_cache()

    def test_threads_thrashing_both_caches_lose_nothing(self):
        """More threads than cores cycle more DTDs than either cache holds,
        switching every few microseconds: every lookup is counted once,
        nothing raises, and both caches stay within their bound."""
        clear_encoding_cache()
        texts = [
            f"<!ELEMENT r (t{i}*)>\n<!ELEMENT t{i} EMPTY>\n<!ATTLIST t{i} k CDATA #REQUIRED>"
            for i in range(DTD_CACHE_LIMIT + 8)
        ]
        registry = SessionRegistry()
        errors: list[BaseException] = []
        num_threads = 4

        def work(offset: int) -> None:
            try:
                for i in range(len(texts)):
                    dtd, _ = registry.parsed_dtd(texts[(i + offset) % len(texts)])
                    build_encoding(dtd, [])
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=work, args=(k * 17,)) for k in range(num_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        stats = encoding_cache_stats()
        assert stats["hits"] + stats["misses"] == num_threads * len(texts)
        assert len(combined._DTD_BLOCK_CACHE) <= DTD_CACHE_LIMIT
        assert len(registry._dtds) <= DTD_CACHE_LIMIT
        clear_encoding_cache()


DTD_TEXT = """
<!ELEMENT teachers (teacher, teacher*)>
<!ELEMENT teacher (teach, research)>
<!ELEMENT teach (subject, subject)>
<!ELEMENT subject (#PCDATA)>
<!ELEMENT research (#PCDATA)>
<!ATTLIST teacher name CDATA #REQUIRED>
<!ATTLIST subject taught_by CDATA #REQUIRED>
"""

SIGMAS = [
    "teacher.name -> teacher",
    "teacher.name -> teacher\nsubject.taught_by -> subject",
    "teacher.name -> teacher\nsubject.taught_by -> subject\n"
    "subject.taught_by => teacher.name",
]


#: Two root candidates: ``a`` (the first declared) and ``c``.
TWO_ROOTS_TEXT = """
<!ELEMENT a (b*)>
<!ELEMENT b EMPTY>
<!ELEMENT c (b)>
<!ATTLIST b k CDATA #REQUIRED>
"""

MEMO_CASES = [
    pytest.param(DTD_TEXT, None, sigma, id=f"teachers-sigma{i}")
    for i, sigma in enumerate(["", *SIGMAS])
] + [
    pytest.param(TWO_ROOTS_TEXT, root, sigma, id=f"root-{root}-sigma{len(sigma) > 0:d}")
    for root in (None, "a", "c")
    for sigma in ("", "b.k -> b")
]


class TestDTDTextMemo:
    @pytest.mark.parametrize("text, root, sigma_text", MEMO_CASES)
    def test_fingerprint_equals_spec_fingerprint(self, text, root, sigma_text):
        want = spec_fingerprint(parse_dtd(text, root=root), parse_constraints(sigma_text))
        registry = SessionRegistry()
        for _ in range(2):  # cold, then a memo hit
            session = registry.session_for(text, sigma_text, root=root)
            assert session.fingerprint == want
            assert fingerprint_for(text, sigma_text, root=root) == want
        assert len(registry._dtds) == 1

    def test_root_override_is_part_of_the_key(self):
        registry = SessionRegistry()
        assert registry.parsed_dtd(TWO_ROOTS_TEXT, root="c")[0].root == "c"
        assert registry.parsed_dtd(TWO_ROOTS_TEXT)[0].root == "a"
        assert (
            registry.session_for(TWO_ROOTS_TEXT, "", root="c").fingerprint
            != registry.session_for(TWO_ROOTS_TEXT, "").fingerprint
        )

    def test_memo_holds_the_canonical_text_and_bounds_itself(self):
        registry = SessionRegistry()
        dtd, text = registry.parsed_dtd(DTD_TEXT)
        assert text == dtd_to_string(dtd)
        assert registry.parsed_dtd(DTD_TEXT)[0] is dtd
        assert registry.parsed_dtd(DTD_TEXT, root="teachers")[0] is not dtd
        for i in range(DTD_CACHE_LIMIT + 1):
            registry.parsed_dtd(f"<!ELEMENT r{i} EMPTY>")
        assert len(registry._dtds) == DTD_CACHE_LIMIT
        assert (DTD_TEXT, None) not in registry._dtds  # least recently used

    def test_parse_errors_are_not_cached(self):
        registry = SessionRegistry()
        for _ in range(2):
            with pytest.raises(ReproError):
                registry.session_for("<!ELEMENT r (a)>", "")
        assert not registry._dtds


def _served(registry: SessionRegistry, request: dict) -> str:
    parsed = protocol.parse_request(json.dumps(request))
    session = protocol.resolve_session(registry, parsed)
    return protocol.encode(
        protocol.ok_response(parsed, protocol.perform(session, parsed), session)
    )


class TestServedBytes:
    @pytest.mark.parametrize(
        "request_",
        [
            {"id": 7, "op": "check", "dtd": DTD_TEXT, "constraints": SIGMAS[2]},
            {"id": 7, "op": "check", "dtd": DTD_TEXT, "constraints": SIGMAS[0]},
            {
                "id": 7,
                "op": "implies",
                "dtd": DTD_TEXT,
                "constraints": SIGMAS[1],
                "phi": "subject.taught_by => teacher.name",
            },
            {
                "id": 7,
                "op": "implies",
                "dtd": DTD_TEXT,
                "constraints": SIGMAS[0],
                "phi": "subject.taught_by -> subject",
            },
            {
                "id": 7,
                "op": "implies",
                "dtd": DTD_TEXT,
                "constraints": SIGMAS[1],
                "phi": "teacher.name <= subject.taught_by",
            },
        ],
    )
    def test_fresh_and_warm_registries_answer_alike(self, request_):
        clear_encoding_cache()
        fresh = _served(SessionRegistry(), request_)

        warm = SessionRegistry()
        for i, sigma_text in enumerate(["", *SIGMAS]):
            if sigma_text != request_["constraints"]:
                _served(
                    warm,
                    {"id": i, "op": "check", "dtd": DTD_TEXT, "constraints": sigma_text},
                )
        hits = encoding_cache_stats()["hits"]
        assert _served(warm, request_) == fresh
        assert encoding_cache_stats()["hits"] > hits  # the block was reused
        assert len(warm._dtds) == 1  # and so was the parsed text
        clear_encoding_cache()


def _payloads(dtd, sigma) -> list[dict]:
    """A new session's ``check`` and ``implies`` payloads for the spec."""
    from repro.service.session import SpecSession

    session = SpecSession(dtd, sigma)
    return [session.check(), *(session.implies(phi) for phi in sigma[:2])]


class TestBlockEngine:
    """Each ``Psi_DN`` block's LP instance, leased per solve, and the
    private stand-in a solve builds while it is leased elsewhere."""

    def test_a_held_lease_changes_no_payload(self):
        clear_encoding_cache()
        stand_ins = 0
        for seed, (dtd, sigma) in enumerate(
            [_fuzz_instance(seed) for seed in FUZZ_SEEDS] + _example_specs()
        ):
            try:
                leased = _payloads(dtd, sigma)
            except ReproError:
                continue
            engine = combined._dtd_block(dtd).engine
            before = encoding_cache_stats()
            with engine.lock:
                private = _payloads(dtd, sigma)
            after = encoding_cache_stats()
            assert private == leased, seed
            assert after["engine_leases"] == before["engine_leases"]
            stand_ins += after["engine_private"] - before["engine_private"]
        assert stand_ins, "no solve built a private stand-in"
        clear_encoding_cache()

    def test_release_leaves_exactly_psi_dn(self):
        clear_encoding_cache()
        dtd = teachers_dtd_d1()
        sigma = parse_constraints("teacher.name -> teacher\nsubject.taught_by <= teacher.name")
        encoding = build_encoding(dtd, sigma)
        engine = combined._dtd_block(dtd).engine
        base = encoding.condsys.base
        assert base.num_vars > engine.num_cols
        assert base.num_rows > engine.prefix.num_rows
        assembled = AssembledSystem(base, engine)
        assert assembled.solve_int({}).feasible
        assembled.add_cut({base.variables[0]: 1}, 0)
        assert assembled.solve_int({}).feasible
        h = engine._h
        assert engine.lock.locked()
        assert (h.getNumRow(), h.getNumCol()) == (base.num_rows + 1, base.num_vars)
        assembled.release()
        assert not engine.lock.locked()
        lp = h.getLp()
        assert (lp.num_row_, lp.num_col_) == (engine.prefix.num_rows, engine.num_cols)
        pristine = combined._dtd_block(dtd).dtd_system.system
        arrays = assemble_arrays(pristine)
        assert np.array_equal(lp.row_lower_, arrays[3])
        assert np.array_equal(lp.row_upper_, arrays[4])
        assert np.array_equal(lp.col_lower_, arrays[5])
        assert np.array_equal(lp.col_upper_, arrays[6])
        clear_encoding_cache()

    def test_presolve_off_retry_on_a_leased_engine_restores_presolve(self, monkeypatch):
        from repro.ilp import assembled as assembled_module

        clear_encoding_cache()
        dtd, sigma = teachers_dtd_d1(), parse_constraints("teacher.name -> teacher")
        encoding = build_encoding(dtd, sigma)
        engine = combined._dtd_block(dtd).engine
        assembled = AssembledSystem(encoding.condsys.base, engine)
        instance = assembled._engine(integer=False)
        assert engine.lock.locked()
        h = instance._h
        _, presolve = h.getOptionValue("presolve")
        runs = []
        real_run = h.run

        class FailingFirstRun:
            """The engine's instance, its first ``run`` answering kError."""

            def __getattr__(self, name):
                return getattr(h, name)

            def run(self):
                runs.append(h.getOptionValue("presolve")[1])
                if len(runs) == 1:
                    return assembled_module._highs.HighsStatus.kError
                return real_run()

        monkeypatch.setattr(instance, "_h", FailingFirstRun())
        assert assembled.solve_int({}).feasible
        assert runs[:2] == [presolve, "off"]
        assert h.getOptionValue("presolve")[1] == presolve
        assembled.release()
        assert engine._h is h and h.getOptionValue("presolve")[1] == presolve
        clear_encoding_cache()

    def test_threads_sharing_one_engine_answer_like_one_thread(self):
        """More threads than cores solve different ``Sigma`` over one DTD,
        switching every few microseconds: every answer equals the
        one-thread answer, every solve takes exactly one lease or private
        stand-in, and the engine ends free, holding ``Psi_DN`` only."""
        from repro.checkers.consistency import check_consistency
        from repro.xmltree.serialize import tree_to_string

        def answer(sigma):
            result = check_consistency(dtd, sigma)
            witness = result.witness
            return (
                result.consistent,
                result.stats,
                tree_to_string(witness) if witness is not None else None,
            )

        dtd = parse_dtd(DTD_TEXT)
        sigmas = [parse_constraints(text) for text in ["", *SIGMAS]]
        sigmas += [
            parse_constraints(f"{SIGMAS[1]}\nteacher.name <= subject.taught_by"),
            parse_constraints("subject.taught_by !<= teacher.name"),
        ]
        clear_encoding_cache()
        want = [answer(sigma) for sigma in sigmas]
        rounds, num_threads = 6, 4
        got: dict[tuple[int, int], tuple] = {}
        errors: list[BaseException] = []

        def work(k: int) -> None:
            try:
                for r in range(rounds):
                    i = (k + r) % len(sigmas)
                    got[k, r] = (i, answer(sigmas[i]))
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        clear_encoding_cache()
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(num_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert len(got) == rounds * num_threads
        for i, answered in got.values():
            assert answered == want[i], i
        solves = sum(answered[1]["lp_solves"] > 0 for _, answered in got.values())
        stats = encoding_cache_stats()
        assert stats["engine_leases"] + stats["engine_private"] == solves
        engine = combined._dtd_block(dtd).engine
        assert not engine.lock.locked()
        assert (engine._h.getNumRow(), engine._h.getNumCol()) == (
            engine.prefix.num_rows,
            engine.num_cols,
        )
        clear_encoding_cache()

    def test_only_the_most_recently_leased_engines_stay_live(self, monkeypatch):
        """Past ``limit``, a lease drops the least recently leased
        instance unless it is leased right now; a dropped engine rebuilds
        its instance and answers as before."""
        from repro.checkers.consistency import check_consistency
        from repro.xmltree.serialize import tree_to_string

        def answer(spec):
            result = check_consistency(*spec)
            witness = result.witness
            return (
                result.consistent,
                result.stats,
                tree_to_string(witness) if witness is not None else None,
            )

        clear_encoding_cache()
        monkeypatch.setattr(combined._LIVE_ENGINES, "limit", 2)
        specs, keys = [], set()
        for seed in FUZZ_SEEDS:
            dtd, sigma = _fuzz_instance(seed)
            key = combined._dtd_cache_key(dtd)
            try:
                solved = key not in keys and answer((dtd, sigma))[1]["lp_solves"] > 0
            except ReproError:
                continue
            if solved:
                specs.append((dtd, sigma))
                keys.add(key)
            if len(specs) == 4:
                break
        clear_encoding_cache()
        first = [answer(spec) for spec in specs]
        engines = [combined._dtd_block(dtd).engine for dtd, _ in specs]
        assert [engine._h is not None for engine in engines] == [False, False, True, True]
        assert [answer(spec) for spec in specs] == first  # two rebuilt
        held = engines[2]
        with held.lock:
            answer(specs[0])
            answer(specs[1])
            assert held._h is not None and engines[3]._h is None
        assert encoding_cache_stats()["engine_private"] == 0
        clear_encoding_cache()

    def test_a_served_replay_leases_once_per_solved_request(self, monkeypatch):
        from repro.checkers import consistency

        solves = []
        real = consistency.solve_conditional_system

        def counting(*args, **kwargs):
            solves.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(consistency, "solve_conditional_system", counting)
        clear_encoding_cache()
        registry = SessionRegistry()
        for i, sigma_text in enumerate(["", *SIGMAS, *SIGMAS]):
            _served(registry, {"id": i, "op": "check", "dtd": DTD_TEXT, "constraints": sigma_text})
        for i, phi in enumerate(("subject.taught_by -> subject", "teacher.name -> teacher")):
            _served(
                registry,
                {"id": i, "op": "implies", "dtd": DTD_TEXT, "constraints": SIGMAS[0], "phi": phi},
            )
        stats = encoding_cache_stats()
        assert solves and stats["engine_leases"] >= len(solves)
        assert stats["engine_private"] == 0
        clear_encoding_cache()
