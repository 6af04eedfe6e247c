"""clawforge: exact symbolic computation and verification of local
conservation laws of PDE systems."""

from .expr import (Atom, DomainError, Expr, FuncSym, IndepVar, Jet,
                   NonlinearError, Param, SymbolTable, ZERO, collect, pdiff,
                   substitute)
from .parse import ParseError, parse
from .calculus import (Equation, Generator, PdeSystem, Prolongation,
                       SolvedFormError, apply_generator, divergence, euler,
                       prolong, symmetry_residual, total_derivative,
                       zero_generator)
from .linsolve import (RationalMatrix, SolutionSpace, nullspace, rank, rref,
                       solve, span_equal)
from .lawgen import (Ansatz, AnsatzError, ConservedVector, DeterminingSystem,
                     MultiplierSet, TrivialityReport, WitnessSpace,
                     characteristic, default_theta_ansatz,
                     density_equivalent_mod_trivial, expr_span_equal,
                     fluxes_from_multipliers, formal_lagrangian,
                     symmetry_flux, is_trivial, make_ansatz, mixed_method,
                     monomial_basis, multiplier_determining_system,
                     flux_identity_residual, self_adjointness_check,
                     solve_multipliers, strip_trivial,
                     vectors_equivalent_mod_trivial, verify)
from .modelfile import (LawEntry, ModelFile, ModelFormatError, ansatz_spaces,
                        load_model, parse_model_text)
from .corpus import ModelEntry, builtin_models, get_model, regression_run

__version__ = "0.1.0"
