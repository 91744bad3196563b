"""Exact canonical matrices of group-invariant Fourier transforms over GF(q).

The library computes, for four families of linear group actions on vector
spaces over a finite field (weighted vectors, rectangular matrices under rank,
alternating matrices, symmetric matrices with and without scaling), the matrix
of the orbit-invariant Fourier transform in the orbit-indicator bases, by
three independent routes: brute-force character sums, Pascal-type size
recursions, and closed (q-)Krawtchouk formulas. Everything is exact
arithmetic; the brute force path is the oracle for all the others.
"""

from .cyclotomic import CycInt, PolyQ, QuadraticGamma, Rational, decompose_gamma
from .gfq import CharSpec, FieldSpec, arith, default_char, epsilon, gauss_sum, make_field, nonsquare_delta
from .pascal import (
    FamilyTable,
    PascalParams,
    bpr_fpr_solve,
    closed_form_phi,
    closed_form_table,
    family_table,
    q1_limit,
)
from .qseries import affine_q_krawtchouk, gauss_binom, krawtchouk, pochhammer, q_pochhammer
from .spaces import BudgetError, OrbitLabel, Space, make_space
from .symmetric import (
    PsiBlocks,
    phi_from_psi,
    psi_brute,
    psi_closed,
    relation_suite,
    scaled_restriction,
)
from .transform import (
    CanonicalMatrix,
    InvariantFunction,
    brute_force_phi,
    diagram_check,
    forward_transform,
    hat_involution,
    inverse_transform,
    multi_orthogonality_check,
    pushforward_matrix,
    standard_diagram,
    zonal_table,
)
from .verify import run_suite

__version__ = "0.1.0"
