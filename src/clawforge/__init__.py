"""clawforge: exact symbolic computation and verification of local
conservation laws of PDE systems.  The names below are the library API
listed in the README; everything else is imported from its module."""

from .expr import DomainError, NonlinearError, SymbolTable
from .parse import ParseError, parse
from .calculus import (Equation, Generator, PdeSystem, SolvedFormError,
                       divergence, euler, symmetry_residual, total_derivative)
from .lawgen import (AnsatzError, WitnessSpace,
                     density_equivalent_mod_trivial, flux_identity_residual,
                     fluxes_from_multipliers, formal_lagrangian, is_trivial,
                     make_ansatz, mixed_method, monomial_basis,
                     self_adjointness_check, solve_multipliers, strip_trivial,
                     symmetry_flux, vectors_equivalent_mod_trivial, verify)
from .modelfile import (ModelFile, ModelFormatError, ansatz_spaces,
                        load_model, parse_model_text)
from .corpus import builtin_models, get_model

__version__ = "0.1.0"
