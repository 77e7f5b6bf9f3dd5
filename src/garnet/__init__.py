"""Algebraic small object argument over finite ambient categories."""

from .arrows import (ArrowAmbient, ArrowObj, FinSetAmbient, PresheafAmbient,
                     Square, compose_squares, identity_square)
from .awfs import (Coalgebra, Factorization, GeneratedAWFS, LiftingStructure,
                   Trace, algebra_to_structure, compose_structures,
                   factorization_to_json, find_filler,
                   find_lifting_structures, has_rlp, quillen_factorize,
                   replay, solve_lifting, structure_to_algebra,
                   trace_from_json, trace_to_json, verify_trace)
from .density import (ArrowDiagram, density_closed_form_subobject,
                      subobject_classifier_diagram)
from .errors import (BackdropViolation, BoundaryMismatch, ColimitNotPreserved,
                     EnumerationCap, GarnetError, IterationLimit,
                     MalformedInput, MissingGeneratorWitness, NoIsoFound,
                     NotARetract, NotDiscrete)
from .fincat import FinCategory
from .finset import FinFunction, FinSet
from .freemonad import Backdrop
from .presheaf import Presheaf, PresheafMap

__version__ = "0.1.0"

__all__ = [
    "ArrowAmbient", "ArrowDiagram", "ArrowObj", "Backdrop",
    "BackdropViolation", "BoundaryMismatch", "Coalgebra",
    "ColimitNotPreserved", "EnumerationCap", "Factorization", "FinCategory",
    "FinFunction", "FinSet", "FinSetAmbient", "GarnetError", "GeneratedAWFS",
    "IterationLimit", "LiftingStructure", "MalformedInput",
    "MissingGeneratorWitness", "NoIsoFound", "NotARetract", "NotDiscrete",
    "Presheaf", "PresheafAmbient", "PresheafMap", "Square", "Trace",
    "algebra_to_structure", "compose_squares", "compose_structures",
    "density_closed_form_subobject", "factorization_to_json", "find_filler",
    "find_lifting_structures", "has_rlp", "identity_square",
    "quillen_factorize", "replay", "solve_lifting", "structure_to_algebra",
    "subobject_classifier_diagram", "trace_from_json", "trace_to_json",
    "verify_trace",
]
