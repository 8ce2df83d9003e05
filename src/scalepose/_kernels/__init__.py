"""Hot numeric kernels behind the solvers, in pure NumPy (``_pure``).

The solvers call them through this module's attributes, so a caller can
wrap one here (as the benchmark's tracer does) and every solver sees it.

Kernel functions
----------------
quartic_roots(c4, c3, c2, c1, c0)        -> ascending real roots, (K,)
p3p_distance_sets(obj, bearings)         -> camera-to-point distances, (K, 3)
reprojection_errors(R, t, obj, pix, fx, fy, cx, cy) -> per-point pixel error,
    inf for points at non-positive depth
pixel_errors(cam, pix, fx, fy, cx, cy)   -> the same error for camera-frame
    points of any leading shape (one pose's points or a stack of poses')
reprojection_normal_eqs(R, t, obj, pix, fx, fy, cx, cy)
    -> (JtJ (6,6), Jtr (6,), cost, n_valid) for the Gauss-Newton step
points_in_box_mask(pts, R, t, half_extents) -> bool mask, closed half-spaces
"""

from ._pure import (  # noqa: F401
    p3p_distance_sets,
    pixel_errors,
    points_in_box_mask,
    quartic_roots,
    reprojection_errors,
    reprojection_normal_eqs,
)


def backend_name():
    """Name of the kernel implementation: NumPy is the only one."""
    return "pure"
