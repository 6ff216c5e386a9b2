"""The joint density f(n, i | j) through the expanded mixture-ratio
identity, kept as a test oracle for the definition form in
``softrec.metrics``.

Substituting the mixture forms of f_{Y|X} and f_Y into the definition
collapses the joint density to

    dF_i / sum_k P_k exp(-(2 y - a_j - a_k)(a_j - a_k) / (2 sigma^2))

with y = g_i^{-1}(n). It shares only the inverse with the library's route,
so the two must not be folded together.
"""

from __future__ import annotations

import numpy as np
from scipy.special import logsumexp

from softrec.softening import SofteningTransform, inverse_and_jacobian


def joint_density_ratio_form(n, i, j, t: SofteningTransform):
    """f(n, i | j), broadcasting over ``n``, ``i`` and ``j``."""
    ch = t.channel
    y, _ = inverse_and_jacobian(n, i, t)
    a = ch.constellation.points
    aj = a[np.asarray(j)]
    yb = np.asarray(y)[..., None]
    ajb = np.asarray(aj)[..., None]
    expo = -((2.0 * yb - ajb - a) * (ajb - a)) / (2.0 * ch.noise_variance)
    log_den = logsumexp(expo, axis=-1, b=ch.constellation.priors)
    return np.exp(np.log(t.deltas[np.asarray(i)]) - log_den)
