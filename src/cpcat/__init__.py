"""Finite-dimensional dagger compact categories with CP structure.

Two instances are built in: complex matrices (``COMPLEX``) and boolean
relations (``BOOLEAN``).  On top of the base category the package
provides Kraus presentations of CP maps, their doubled forms, Choi and
superoperator conversions, environment-structure axiom checkers, and a
small expression language with a command-line front end.

``import cpcat`` loads only :mod:`cpcat.errors`.  Every other public
name, and every submodule, is imported at its first use as an
attribute of the package (PEP 562), so a command-line launch loads only
the modules its subcommand runs.
"""

import importlib

from . import errors

__version__ = "0.1.0"

# each module's public names; this table is both the lazy lookup and
# ``__all__``
_PUBLIC = {
    "core": ("BOOLEAN", "COMPLEX", "DEFAULT_TOL", "KRAUS_EIG_TOL",
             "LawReport", "Mor", "Obj", "SEMIRINGS", "Semiring", "UNIT",
             "as_obj", "check_laws", "compose", "factor_permutation",
             "identity", "max_abs_diff", "mor_equal", "random_mor",
             "random_unitary", "swap", "tensor"),
    "instances": ("cap", "conj_star", "cup", "name_of", "transpose"),
    "cp": ("KrausMor", "cp_compose", "cp_deviation", "cp_equal", "cp_form",
           "cp_identity", "cp_tensor", "discard", "pure"),
    "cpm": ("CpmMor", "cpm_dagger", "cpm_form"),
    "channels": ("ChoiMatrix", "DilationResult", "Superoperator", "check_cp",
                 "choi_of_kraus", "choi_of_superop", "kraus_from_choi",
                 "schrodinger_of", "superop_compose"),
    "axioms": ("AXIOM_RUNNERS", "AxiomReport", "EnvStructure",
               "check_doubling_base", "check_doubling_pair", "check_env_a",
               "check_env_b_pair", "check_env_c", "check_prep_state_base",
               "check_prep_state_pair", "replay_proposition_steps",
               "xi_lift"),
    "dsl": ("check_term", "eval_script", "eval_term", "parse_expr",
            "parse_script", "print_script", "print_term", "read_morfile",
            "tokenize", "write_morfile"),
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items()
              for name in names}

__all__ = sorted(["errors", *_MODULE_OF])


def __getattr__(name: str):
    """A public name from its module, or a submodule, imported on first
    use; nothing is cached here, so each read sees the module's own."""
    if name in _PUBLIC:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _MODULE_OF:
        module = importlib.import_module(f"{__name__}.{_MODULE_OF[name]}")
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
