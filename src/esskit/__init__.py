"""esskit: a method-engineering toolkit built on the Essence kernel model.

Declare kernels, practices, methods, roles, and ADM phase specifications in
the ``.ess`` language; validate and lint them; map phase specifications to
practices deterministically; assess alpha progress from checklists; and
enact cyclic methods with always-on concurrent practices.
"""

import importlib

__version__ = "0.1.0"

# Public name -> the module defining it. Modules load on first use, so a
# command imports only what it runs.
_EXPORTS = {
    "diagnostics": ("Diagnostic", "ParseError", "ResolveError", "Severity", "SourceSpan"),
    "dsl": ("parse",),
    "lint": ("LINT_RULES", "LintRule", "UnknownRuleError", "run_lints"),
    "model": (
        "ACTIVITY_TAGS", "KERNEL_COMPETENCIES", "PHASE_IDS", "PHASE_PRACTICE_NAMES",
        "TAG_COMPETENCIES", "Activity", "ActivitySpec",
        "Alpha", "AlphaState", "Area", "AreaDecl", "Competency", "CompetencyGrade",
        "Contribution", "Kernel", "Method", "ModelDocument", "Practice", "Role", "Space",
        "StepSpec", "TogafPhase", "WorkProduct", "WorkProductCategory", "dotted_id",
        "element_id", "iter_elements", "lookup", "merge", "slug",
    ),
    "progress": (
        "AssessmentError", "EnactmentError", "EnactmentState", "active_practices",
        "assess_alpha", "next_phase", "practice_progress", "start_enactment", "visitation",
    ),
    "render": ("export_dot", "export_json", "render_canonical"),
    "togaf": ("MappingError", "load_corpus", "load_manifest", "map_phase"),
    "validator": (
        "AreaProfile", "ResolvedModel", "check", "check_wellformedness",
        "compute_area_profile", "resolve",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
