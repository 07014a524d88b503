"""Goldman symplectic pairings on PSL(2,C) character varieties of orbifold
surface groups, with a Schwarzian-ODE monodromy engine for marked spheres."""

__version__ = "0.1.0"

from .words import (FreeWord, GroupRingElement, Signature, dual_generators,
                    fox_derivative, fundamental_class_chain, parse_word,
                    prefix_products, relator, verify_presentation_identities)
from .sl2 import MoebiusMap, QuadPoly, ad_matrix, adjoint_action, killing
from .cocycles import (Cocycle, Representation, random_parabolic_cocycle,
                       reduce_by_coboundary)
from .goldman import (CUP_SIGN, PairingReport, cup_product_on_chain,
                      goldman_closed, pairing)
from .jets import Jet
from .schwarzian import (b_apply, check_identities, invariant_potential,
                         lambda_apply, schwarzian, solve_lambda_report)
from .monodromy import MonodromyEngine, SphereData, build_potential
from .kawai import (AccessoryDirection, GridOffset, PointDirection,
                    kawai_experiment)
