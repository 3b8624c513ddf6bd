"""Quantum walks defined by digraphs: exact operators, spectra, supports,
and cospectral classification of small digraphs."""

from .cyclotomic import Angle, CycScalar, make_root, real_part_sign, to_float
from .cycles import CycleClassification, classify_cycles
from .digraph import (
    ArcSpace,
    Digraph,
    PreconditionError,
    arc_list_text,
    arc_space,
    compact_code,
    complete_digraph,
    digon_cut_switch,
    digons,
    empty_digraph,
    from_compact_code,
    is_graph,
    is_regular,
    make_Y,
    parse_arc_list,
    transpose,
    underlying,
    weakly_connected,
)
from .enumeration import canonical_code, enumerate_digraphs, enumerate_regular_digraphs
from .operators import (
    IndexSpace,
    NoArcsError,
    OpMatrix,
    build_C,
    build_D_theta,
    build_F,
    build_H_eta,
    build_H_tilde,
    build_K,
    build_R,
    build_S,
    build_S_theta,
    build_U_grover,
    build_U_theta,
)
from .spectra import (
    CharPoly,
    SpectrumSummary,
    charpoly_exact,
    cospectral_key,
    eig_hermitian,
    phi_inverse,
    spectra_match,
    spectrum_U_oracle,
    spectrum_U_via_mapping,
)
from .supports import (
    SupportMatrix,
    digon_count_via_trace,
    power_support,
    support,
    verify_square_negative_identity,
    verify_square_support_formula,
)
from .tables import CospectralTable, classify, emit_table

__version__ = "0.1.0"
