import numpy as np

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
