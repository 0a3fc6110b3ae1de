"""repro — XML integrity constraints in the presence of DTDs.

A faithful, executable reproduction of Wenfei Fan and Leonid Libkin,
*On XML Integrity Constraints in the Presence of DTDs* (PODS 2001; full
version JACM 49(3), 2002): the consistency and implication problems for
XML keys, foreign keys and inclusion constraints interacting with DTDs.

Quickstart::

    from repro import DTD, parse_constraints, check_consistency

    d1 = DTD.build(
        "teachers",
        {"teachers": "(teacher+)", "teacher": "(teach, research)",
         "teach": "(subject, subject)", "subject": "(#PCDATA)",
         "research": "(#PCDATA)"},
        attrs={"teacher": ["name"], "subject": ["taught_by"]},
    )
    sigma1 = parse_constraints('''
        teacher.name -> teacher
        subject.taught_by -> subject
        subject.taught_by => teacher.name
    ''')
    result = check_consistency(d1, sigma1)
    assert not result.consistent        # the paper's Section-1 example

See ``README.md`` for the tour, ``DESIGN.md`` for the system inventory,
and ``benchmarks/report.py`` for the per-figure reproduction record.

The exports below resolve lazily, on first attribute access (PEP 562):
``python -m repro check`` imports this package before the CLI, and a
one-shot command should pay only for the modules it runs, not for the
whole toolkit (importing the analysis layer alone costs more than a
typical check).
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__all__ = [
    # the stable facade
    "api",
    "Spec",
    # models
    "DTD",
    "parse_dtd",
    "dtd_to_string",
    "XMLTree",
    "Element",
    "TextNode",
    "element",
    "text",
    "parse_xml",
    "tree_to_string",
    "conforms",
    # constraints
    "Constraint",
    "Key",
    "InclusionConstraint",
    "ForeignKey",
    "NegKey",
    "NegInclusion",
    "parse_constraint",
    "parse_constraints",
    "classify",
    "satisfies",
    "satisfies_all",
    # decision procedures
    "CheckerConfig",
    "ConsistencyResult",
    "ImplicationResult",
    "check_consistency",
    "check_consistency_primary",
    "dtd_has_valid_tree",
    "implies",
    "implies_all",
    "implies_primary",
    "bounded_consistency",
    # analysis
    "diagnose",
    "DiagnosticsReport",
    "mus",
    "redundant_constraints",
    "Repair",
    "minimal_repair",
    "apply_repair",
    "extent_bounds",
    "ExtentBounds",
    # errors
    "ReproError",
    "ParseError",
    "InvalidDTDError",
    "InvalidTreeError",
    "InvalidConstraintError",
    "UndecidableProblemError",
    "ComplexityLimitError",
    "SolverError",
    "__version__",
]

#: Exported name -> the module that provides it (``api`` is the submodule
#: itself).  ``__getattr__`` imports that module on first access.
_EXPORTS = {
    "api": "repro.api",
    "DiagnosticsReport": "repro.analysis",
    "ExtentBounds": "repro.analysis",
    "Repair": "repro.analysis",
    "apply_repair": "repro.analysis",
    "diagnose": "repro.analysis",
    "extent_bounds": "repro.analysis",
    "minimal_repair": "repro.analysis",
    "mus": "repro.analysis",
    "redundant_constraints": "repro.analysis",
    "CheckerConfig": "repro.checkers",
    "ConsistencyResult": "repro.checkers",
    "ImplicationResult": "repro.checkers",
    "bounded_consistency": "repro.checkers",
    "check_consistency": "repro.checkers",
    "check_consistency_primary": "repro.checkers",
    "dtd_has_valid_tree": "repro.checkers",
    "implies": "repro.checkers",
    "implies_all": "repro.checkers",
    "implies_primary": "repro.checkers",
    "Constraint": "repro.constraints",
    "ForeignKey": "repro.constraints",
    "InclusionConstraint": "repro.constraints",
    "Key": "repro.constraints",
    "NegInclusion": "repro.constraints",
    "NegKey": "repro.constraints",
    "classify": "repro.constraints",
    "parse_constraint": "repro.constraints",
    "parse_constraints": "repro.constraints",
    "satisfies": "repro.constraints",
    "satisfies_all": "repro.constraints",
    "DTD": "repro.dtd",
    "dtd_to_string": "repro.dtd",
    "parse_dtd": "repro.dtd",
    "ComplexityLimitError": "repro.errors",
    "InvalidConstraintError": "repro.errors",
    "InvalidDTDError": "repro.errors",
    "InvalidTreeError": "repro.errors",
    "ParseError": "repro.errors",
    "ReproError": "repro.errors",
    "SolverError": "repro.errors",
    "UndecidableProblemError": "repro.errors",
    "Element": "repro.xmltree",
    "TextNode": "repro.xmltree",
    "XMLTree": "repro.xmltree",
    "conforms": "repro.xmltree",
    "element": "repro.xmltree",
    "parse_xml": "repro.xmltree",
    "text": "repro.xmltree",
    "tree_to_string": "repro.xmltree",
    "Spec": "repro.api",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS, __all__)
