"""Fidelity tests: facts the paper states explicitly, checked verbatim.

Each test cites the place in the paper whose concrete claim it verifies —
these are the "ground truth" anchors of the reproduction, independent of
our own abstractions.
"""

from repro.checkers.consistency import check_consistency
from repro.constraints.parser import parse_constraints
from repro.dtd.simplify import simplify_dtd
from repro.encoding.combined import build_encoding
from repro.encoding.dtd_system import encode_dtd, ext_var
from repro.ilp.assembled import AssembledSystem
from repro.ilp.condsys import solve_conditional_system


class TestSection1Cardinalities:
    """The displayed equations (1) and (2) of Section 1."""

    def test_equation_2_two_subjects_per_teacher(self, d1):
        # "1 <= 2 |ext(teacher)| = |ext(subject)|": every Psi_DN1 solution.
        psi = encode_dtd(simplify_dtd(d1))
        for extra in (1, 2, 3):
            system = psi.system.copy()
            system.add_ge({ext_var("teacher"): 1}, extra)
            solution = AssembledSystem(system).solve_int({})
            assert solution.feasible
            assert (
                solution.values[ext_var("subject")]
                == 2 * solution.values[ext_var("teacher")]
            )
            assert solution.values[ext_var("teacher")] >= 1

    def test_equation_1_from_sigma1(self, d1, sigma1):
        # "|ext(subject)| <= |ext(teacher)|" follows from Sigma1: check it
        # on the encoding with the DTD's own equations removed by relaxing
        # the subject count — i.e. the combined system must be infeasible
        # exactly because (1) and (2) clash.
        assert not check_consistency(d1, sigma1).consistent

    def test_each_half_alone_is_fine(self, d1, sigma1):
        assert check_consistency(d1, []).consistent
        # And Sigma1 is satisfiable over a DTD without the two-subject rule.
        from repro.workloads.generators import teachers_family

        dtd_ok, sigma_ok = teachers_family(0, consistent=True)
        assert check_consistency(dtd_ok, sigma_ok).consistent


class TestSection41SimplifiedD1:
    """The worked simplification D_N1 of Section 4.1."""

    def test_structure_matches_paper(self, d1):
        simple = simplify_dtd(d1)
        # The paper's D_N1 keeps all five original types and adds three
        # fresh ones (tau_1t, tau_2t, tau_eps) for teacher, teacher*.
        assert simple.original_types == {
            "teachers", "teacher", "teach", "research", "subject"
        }
        generated = [t for t in simple.types if not simple.is_original(t)]
        assert len(generated) == 3

    def test_psi_dn1_consistent_psi_dn2_not(self, d1, d2):
        # "It is easy to check that Psi_DN1 is consistent, whereas
        # Psi_DN2 is not." (end of Section 4.1)
        psi_dn1 = encode_dtd(simplify_dtd(d1)).system
        psi_dn2 = encode_dtd(simplify_dtd(d2)).system
        assert AssembledSystem(psi_dn1).solve_int({}).feasible
        assert AssembledSystem(psi_dn2).solve_int({}).infeasible

    def test_root_count_is_one(self, d1):
        system = encode_dtd(simplify_dtd(d1)).system
        solution = AssembledSystem(system).solve_int({})
        assert solution.values[ext_var("teachers")] == 1

    def test_research_equals_teacher_count(self, d1):
        # From P1(teacher) = teach, research: one research per teacher.
        psi = encode_dtd(simplify_dtd(d1))
        system = psi.system.copy()
        system.add_ge({ext_var("teacher"): 1}, 3)
        solution = AssembledSystem(system).solve_int({})
        assert (
            solution.values[ext_var("research")]
            == solution.values[ext_var("teacher")]
        )


class TestLemma44ValueConstruction:
    """Lemma 4.4: cardinality solutions lift to actual value assignments."""

    def test_witness_realizes_prefix_containment(self, d1):
        sigma = parse_constraints(
            "subject.taught_by <= teacher.name"
        )
        encoding = build_encoding(d1, sigma)
        result, _ = solve_conditional_system(encoding.condsys)
        assert result.feasible
        from repro.witness.synthesize import synthesize_witness

        tree = synthesize_witness(encoding, result.values)
        assert tree.ext_attr("subject", "taught_by") <= tree.ext_attr(
            "teacher", "name"
        )


class TestPrimaryKeyObservation:
    """Section 4.2: 'at most one ID attribute per element type' — the
    Figure-4 family already satisfies the primary restriction, so the
    hardness survives it (Corollary 4.8)."""

    def test_reduction_is_primary(self):
        from repro.constraints.classes import is_primary_key_set
        from repro.reductions.lip import lip_to_xml, random_lip_instance

        for seed in range(5):
            reduction = lip_to_xml(random_lip_instance(3, 3, 0.5, seed))
            assert is_primary_key_set(reduction.sigma)


class TestCUnaryKICGeneralizesFK:
    """Section 4: C^unary_K,IC allows inclusion constraints *independent*
    of keys — strictly more than foreign keys."""

    def test_bare_inclusion_without_target_key(self, d1):
        # taught_by ⊆ name without making name a key: satisfiable even
        # with duplicate names.
        sigma = parse_constraints("subject.taught_by <= teacher.name")
        result = check_consistency(d1, sigma)
        assert result.consistent

    def test_fk_version_differs_from_bare_ic(self):
        # The *key component* is what separates a foreign key from a bare
        # inclusion: with one `a` and two `b` elements and b.y ⊆ a.x, the
        # bare inclusion a.x ⊆ b.y is satisfiable (all values equal), but
        # the foreign key a.x => b.y additionally keys b.y, forcing
        # |ext(b.y)| = 2 <= |ext(a.x)| = 1 — inconsistent.
        from repro.dtd.model import DTD

        d = DTD.build(
            "r", {"r": "(a, b, b)", "a": "EMPTY", "b": "EMPTY"},
            attrs={"a": ["x"], "b": ["y"]},
        )
        common = "b.y <= a.x"
        bare = parse_constraints(f"{common}\na.x <= b.y")
        fk = parse_constraints(f"{common}\na.x => b.y")
        assert check_consistency(d, bare).consistent
        assert not check_consistency(d, fk).consistent
