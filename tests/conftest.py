import ctypes
import glob
import os
import platform

import numpy as np

try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_features__

from qsteer.batch import SIGMA
from qsteer.states import DensityMatrix

# Forms in which a matrix reaches the public entry points; a test that takes
# ``form`` runs once per form it lists, on the same data.
FORMS = {
    "numpy": np.asarray,
    "list": lambda m: np.asarray(m).tolist(),
    "DensityMatrix": DensityMatrix,
}

# sigma_y x sigma_y, built from the Pauli matrices; its entries are 0 and +-1,
# so a product with it is exact
SIGMA_YY = np.kron(SIGMA[1], SIGMA[1])

# numpy's AVX-512 dispatch targets: NPY_DISABLE_CPU_FEATURES switches them off
AVX512_FEATURES = ("X86_V4", "AVX512_ICL", "AVX512_SPR")


def _openblas_core() -> str:
    """The kernel set numpy's bundled OpenBLAS picked on this host, or
    "unknown" where no such library or symbol is found."""
    site = os.path.dirname(os.path.dirname(np.__file__))
    for lib in sorted(glob.glob(os.path.join(site, "numpy.libs", "*openblas*"))
                      + glob.glob(os.path.join(site, "numpy", ".dylibs", "*openblas*"))):
        try:
            corename = ctypes.CDLL(lib).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


def pytest_report_header(config):
    """The host profile beside the one the byte goldens were taken on, so a
    digest that fails on another host names that host in the same log."""
    avx512 = [f for f in AVX512_FEATURES if __cpu_features__.get(f)]
    return [
        "byte goldens taken on: numpy 2.4, x86_64, AVX-512 dispatch X86_V4 AVX512_ICL "
        "AVX512_SPR, OpenBLAS SkylakeX",
        f"this host: numpy {np.__version__}, {platform.machine()}, AVX-512 dispatch "
        f"{' '.join(avx512) or 'none'}, OpenBLAS {_openblas_core()}",
    ]
