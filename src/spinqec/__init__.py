"""Spin coherent-state quantum error-correcting codes.

Dense spin-j linear algebra, SU(2) rotations and Wigner matrices, spin
coherent states with exact sphere quadrature, coherent-state code
families with closed-form matrix elements, approximate Knill-Laflamme
checks, syndrome-measurement recovery, monopole harmonics and Landau
codes, and exact finite GKP shift codes, behind one small CLI.

The package exports the union of its library modules' __all__ lists: a
public name is declared once, in its module's __all__.  The CLI (cli)
is not imported here, so importing the package loads no argparse.
"""

from .spin_core import *
from .rotations import *
from .coherent import *
from .lll_codes import *
from .qec_check import *
from .recovery import *
from .monopole import *
from .finite_gkp import *

__version__ = "0.1.0"
