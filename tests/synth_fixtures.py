"""Synthetic fixtures that only the unit tests use."""

import numpy as np


class SphereSurface:
    def __init__(self, center, radius: float):
        self.center = np.asarray(center, dtype=np.float64)
        self.radius = float(radius)

    def min_camera_z(self) -> float:
        return self.center[2] + self.radius

    def intersect(self, origin, dirs, dtype=np.float64):
        # Closed form: the depth is exact in any `dtype`.
        oc = origin - self.center
        a = np.einsum("...i,...i->...", dirs, dirs)
        b = 2.0 * dirs @ oc
        c = oc @ oc - self.radius**2
        disc = b**2 - 4 * a * c
        with np.errstate(invalid="ignore"):
            sq = np.sqrt(disc)
            t1 = (-b - sq) / (2 * a)
            t2 = (-b + sq) / (2 * a)
            t = np.where(t1 > 0, t1, t2)
            t = np.where((disc >= 0) & (t > 0), t, np.nan)
        return t


def contains(expected, record) -> bool:
    """Whether both directed overlaps of record lie in expected's intervals."""
    return (expected.xy[0] <= record.nso_xy <= expected.xy[1]
            and expected.yx[0] <= record.nso_yx <= expected.yx[1])
