import numpy as np

from qsteer.states import DensityMatrix

# Forms in which a matrix reaches the public entry points; a test that takes
# ``form`` runs once per form it lists, on the same data.
FORMS = {
    "numpy": np.asarray,
    "list": lambda m: np.asarray(m).tolist(),
    "DensityMatrix": DensityMatrix,
}
