"""Mean estimation with a certified (epsilon, delta) guarantee when only a
bound on the relative variance is known, plus the tools that certify and
apply it: sample-size calculators, seeded sources, a Monte Carlo coverage
harness, and desk-scale approximate counting."""

# The modules are bound before the star imports: `from .psi import *`
# rebinds `relmean.psi` from the module to the function, which it must stay,
# and after that `from . import psi` would find the function.
from . import counting as _counting
from . import estimator as _estimator
from . import harness as _harness
from . import psi as _psi
from . import sources as _sources
from .psi import *  # noqa: F401,F403
from .estimator import *  # noqa: F401,F403
from .sources import *  # noqa: F401,F403
from .harness import *  # noqa: F401,F403
from .counting import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = ["__version__"]
for _module in (_psi, _estimator, _sources, _harness, _counting):
    __all__ += _module.__all__
