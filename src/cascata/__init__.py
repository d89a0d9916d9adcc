"""Automata cascades: prime components, flattening, growth/dimension bounds,
and an ERM learning harness."""

from .alphabets import (
    BooleanView,
    Coordinate,
    FactoredAlphabet,
    MonotoneDnf,
    MonotoneDnfClass,
    Projection,
    TableClass,
    TableFunction,
    ThresholdClass,
    ThresholdConjunction,
    enumerate_class,
    projection_count,
)
from .automata import (
    ComponentAutomaton,
    EquivalenceResult,
    FlatAutomaton,
    Semiautomaton,
)
from .cascade import (
    Cascade,
    CascadeClass,
    CascadeState,
    ClassPart,
    StepResult,
    build_chained,
    chain_alphabet,
)
from .errors import (
    ArityMismatchError,
    CapExceededError,
    CascataError,
    EmptyInputError,
    SpecFileError,
    UnknownLetterError,
)
from .functional import cascade_function, component_function
from .primes import (
    is_prime_counter,
    make_counter,
    make_flipflop,
    validate_prime_identities,
)
from .specfile import cascade_from_spec, cascade_to_spec, class_from_spec

__all__ = [name for name in dir() if not name.startswith("_")]
