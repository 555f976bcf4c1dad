"""The generic side of the tests' references for the model's quadratic term."""

import numpy as np


def quad_coeffs(system):
    """The tensor a_jk (dim, dim, dim) of N(u) = sum_{j,k} a_jk u^j u^k,
    symmetrized, a_jk = -beta*delta_jk*V - beta*(V_j e_k + V_k e_j): the
    `model` docstring's formula, built here element by element so that the
    closed-form products are held to something they do not share."""
    V, beta = system.V, system.params.beta
    eye = np.eye(len(V))
    quad = np.zeros((len(V),) * 3)
    for j in range(len(V)):
        for k in range(len(V)):
            quad[j, k] = -beta * (eye[j, k] * V + V[j] * eye[k] + V[k] * eye[j])
    return quad
