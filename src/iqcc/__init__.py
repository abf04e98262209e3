"""Iterative qubit coupled cluster electronic-structure engine."""

__version__ = "0.1.0"

from ._packed import PackedSum, ReferenceState
from .driver import (
    GapResult,
    IqccConfig,
    IterationRecord,
    RunResult,
    pt_correction,
    resource_estimate,
    run_iqcc,
    singlet_triplet_gap,
)
from .engine import RankedGenerator, estimate_amplitude, rank_generators
from .errors import IqccError
from .fcidump import MolecularIntegrals, load_fcidump, parse_fcidump, select_cas
from .mapping import jordan_wigner, penalize, reference_state, spin_operators
from .optimizer import OptimizationResult, minimize
from .pauli import PauliWord, parse_word, render_word
from .pauli_sum import dress_sequence, prune
