"""Finite-dimensional dagger compact categories with CP structure.

Two instances are built in: complex matrices (``COMPLEX``) and boolean
relations (``BOOLEAN``).  On top of the base category the package
provides Kraus presentations of CP maps, their doubled forms, Choi and
superoperator conversions, environment-structure axiom checkers, and a
small expression language with a command-line front end.
"""

from .core import (BOOLEAN, COMPLEX, DEFAULT_TOL, LawReport, Mor, Obj,
                   SEMIRINGS, Semiring, UNIT, as_obj, check_laws, compose,
                   factor_permutation, identity, max_abs_diff, mor_equal,
                   random_mor, random_unitary, swap, tensor)
from .instances import cap, conj_star, cup, name_of, transpose
from .cp import (KrausMor, cp_compose, cp_deviation, cp_equal, cp_form,
                 cp_identity, cp_tensor, discard, pure)
from .cpm import CpmMor, cpm_dagger, cpm_form
from .channels import (ChoiMatrix, DilationResult, KRAUS_EIG_TOL,
                       Superoperator, check_cp, choi_of_kraus,
                       choi_of_superop, kraus_from_choi, schrodinger_of,
                       superop_compose)
from .axioms import (AXIOM_RUNNERS, AxiomReport, EnvStructure,
                     check_doubling_base, check_doubling_pair, check_env_a,
                     check_env_b_pair, check_env_c, check_prep_state_base,
                     check_prep_state_pair, replay_proposition_steps,
                     xi_lift)
from .dsl import (eval_script, eval_term, parse_expr, parse_script,
                  print_script, print_term, read_morfile, tokenize,
                  write_morfile)
from . import errors

__version__ = "0.1.0"

__all__ = [
    "AXIOM_RUNNERS", "AxiomReport", "BOOLEAN", "COMPLEX", "ChoiMatrix",
    "CpmMor", "DEFAULT_TOL", "DilationResult", "EnvStructure", "KRAUS_EIG_TOL",
    "KrausMor", "LawReport", "Mor", "Obj", "SEMIRINGS", "Semiring",
    "Superoperator", "UNIT", "as_obj", "cap", "check_cp",
    "check_doubling_base", "check_doubling_pair", "check_env_a",
    "check_env_b_pair", "check_env_c", "check_laws", "check_prep_state_base",
    "check_prep_state_pair", "choi_of_kraus", "choi_of_superop", "compose",
    "conj_star", "cp_compose", "cp_deviation", "cp_equal", "cp_form",
    "cp_identity", "cp_tensor", "cpm_dagger", "cpm_form", "cup", "discard",
    "errors", "eval_script", "eval_term", "factor_permutation", "identity",
    "kraus_from_choi", "max_abs_diff", "mor_equal", "name_of", "parse_expr",
    "parse_script", "print_script", "print_term", "pure", "random_mor",
    "random_unitary", "read_morfile", "replay_proposition_steps",
    "schrodinger_of", "superop_compose", "swap", "tensor", "tokenize",
    "transpose", "write_morfile", "xi_lift",
]
