"""The squared channel gain's CDF in u, the goodness-of-fit oracle of the sampled gains.

For a disc-uniform user, v = (r_k/r)**2 is uniform, so u = t**(-1/(m+3)) =
(r**2*v + L**2) / C is uniform over the cell and P(T <= x) =
1 + L**2/r**2 - (C/r**2) * x**(-1/(m+3)) between the support ends, 0 at or
below t_min and 1 at or above t_max.  This form is independent of the
program's CDF in log-SNR (``log_snr_law``), which ``vlc_link.outage`` reads.
"""

import numpy as np


def gain_sq_cdf(x, p):
    """P(T <= x) for the squared gain T of the cell ``p`` (``p.law``), elementwise in x."""
    m, c_const, r_sq, height_sq, t_min, t_max, _ = p.law
    values = np.asarray(x, dtype=float)
    inside = np.where((values > t_min) & (values < t_max), values, t_min)
    body = 1.0 + height_sq / r_sq - (c_const / r_sq) * inside ** (-1.0 / (m + 3.0))
    body = np.clip(body, 0.0, 1.0)
    return np.where(values <= t_min, 0.0, np.where(values >= t_max, 1.0, body))
