"""Hot numeric kernels behind the solvers.

The solvers call them through this module's attributes, so a caller can
wrap one here (as the benchmark's tracer does) and every solver sees it.

Kernel functions
----------------
quartic_roots(c4, c3, c2, c1, c0)        -> ascending real roots, a list
p3p_distance_sets(a2, b2, c2, ca, cb, cg) -> camera-to-point distances, a list
    of (s1, s2, s3) tuples
reprojection_errors(R, t, obj, pix, fx, fy, cx, cy) -> per-point pixel error,
    inf for points at non-positive depth
pixel_errors(cam, pix, fx, fy, cx, cy)   -> the same error for camera-frame
    points of any leading shape (one pose's points or a stack of poses')
reprojection_normal_eqs(R, t, obj, pix, fx, fy, cx, cy)
    -> (JtJ (6,6), Jtr (6,), cost, n_valid) for the Levenberg-Marquardt refine

Grunert's P3P and the Ferrari quartic are scalar code on Python floats,
called once per RANSAC sample, and make no NumPy call: at a block of
eight samples that beats array code. The quartic's roots are not
polished; each distance triple is, once. A vectorised Grunert with companion
eigenvalues and an array Newton polish took 1.11 ms per block, about what
eight scalar calls took while they still made NumPy calls, and a call now
takes about 30 us. The reprojection kernels are NumPy: they take float64
arrays (a rotation (3, 3), a translation (3,), points (N, 3), pixels
(N, 2)) and do not convert them, since every solver passes them so.
"""

import math

import numpy as np

# Relative tolerance for merging duplicate polynomial roots / distance sets;
# also the fraction of a set's largest distance that its smallest must
# exceed (below it the camera sits at a vertex by rounding).
_DEDUP_RTOL = 1e-8
# Below this |2 (cos_g - v cos_a)| / (1 + v), the quartic root v is taken as
# shared by two P3P solutions.
_SHARED_ROOT_TOL = 1e-4
# A few ulps: a sum whose magnitude is below this times the sum of its
# terms' magnitudes is zero up to rounding.
_ROUNDING = 4.0 * 2.0 ** -52
# Polynomial coefficients below this times the largest are taken as zero;
# P3P's leading coefficient can cancel to about 1e-15 instead of to 0.
_NEGLIGIBLE = 1e-12
# A leading coefficient below this times the largest, but not negligible,
# is solved on the reversed quartic when that one's leading term is larger.
_SMALL_LEADING = 1e-4


def _cubic_max_real_root(a, b, c):
    """Largest real root of m^3 + a m^2 + b m + c."""
    p = b - a * a / 3.0
    q = c + a * (2.0 * a * a - 9.0 * b) / 27.0
    disc = 0.25 * q * q + p * p * p / 27.0
    if disc >= 0:
        sq = math.sqrt(disc)
        t = math.copysign(abs(-0.5 * q + sq) ** (1.0 / 3.0), -0.5 * q + sq) + math.copysign(
            abs(-0.5 * q - sq) ** (1.0 / 3.0), -0.5 * q - sq
        )
    else:
        rho = math.sqrt(-p * p * p / 27.0)
        theta = math.acos(min(1.0, max(-1.0, -0.5 * q / rho)))
        mag = 2.0 * math.sqrt(-p / 3.0)
        t = max(mag * math.cos((theta - 2.0 * math.pi * k) / 3.0) for k in range(3))
    m = t - a / 3.0
    # t - a/3 is off by about eps |a|: two Newton steps keep a root near
    # zero (a nearly biquadratic quartic's) accurate relative to itself
    for _ in range(2):
        f = ((m + a) * m + b) * m + c
        df = (3.0 * m + 2.0 * a) * m + b
        if df == 0.0:
            break
        m -= f / df
    return m


def _quadratic_real_roots(b, c, out):
    """Real roots of y^2 + b y + c appended to ``out`` (stable form)."""
    disc = b * b - 4.0 * c
    if disc < 0:
        if disc > -1e-10 * max(1.0, b * b + abs(c)):
            out.append(-0.5 * b)
        return
    sq = math.sqrt(disc)
    q = -0.5 * (b + math.copysign(sq, b))
    out.extend((q, c / q if q != 0.0 else -b - q))


def _ferrari_roots(c4, c3, c2, c1, c0):
    """Real roots of the quartic by Ferrari's method, unsorted (c4 != 0)."""
    b, c, d, e = c3 / c4, c2 / c4, c1 / c4, c0 / c4
    # depressed quartic y^4 + p y^2 + q y + r, x = y - b/4
    p = c - 0.375 * b * b
    q = d - 0.5 * b * c + 0.125 * b * b * b
    r = e - 0.25 * b * d + b * b * c / 16.0 - 3.0 * b ** 4 / 256.0
    shift = -0.25 * b
    ys = []
    if abs(q) <= 1e-13 * (1.0 + abs(p) + math.sqrt(abs(r))):
        zs = []
        _quadratic_real_roots(p, r, zs)
        for z in zs:
            if z >= 0:
                ys.extend((math.sqrt(z), -math.sqrt(z)))
            elif z > -1e-12 * (1.0 + abs(p)):
                ys.append(0.0)
    else:
        m = _cubic_max_real_root(p, 0.25 * p * p - r, -0.125 * q * q)
        if m > 0:
            s2m = math.sqrt(2.0 * m)
            half = 0.5 * p + m
            _quadratic_real_roots(-s2m, half + 0.5 * q / s2m, ys)
            _quadratic_real_roots(s2m, half - 0.5 * q / s2m, ys)
    return [y + shift for y in ys]


def quartic_roots(c4, c3, c2, c1, c0):
    """Real roots of c4 x^4 + c3 x^3 + c2 x^2 + c1 x + c0, ascending.

    Ferrari resolvent-cubic factorization; the roots are not polished on
    the quartic (P3P polishes the distance triple built from each root
    instead), and near-coincident roots are merged. Degenerate leading
    coefficients fall through to the cubic/quadratic/linear case; a small
    but not negligible one is solved on the reversed quartic.
    """
    coeffs = (c4, c3, c2, c1, c0)
    scale = max(abs(c) for c in coeffs)
    if scale == 0.0:
        return []
    roots = []
    if abs(c4) <= _NEGLIGIBLE * scale:
        if abs(c3) <= _NEGLIGIBLE * scale:
            if abs(c2) <= _NEGLIGIBLE * scale:
                if abs(c1) > _NEGLIGIBLE * scale:
                    roots.append(-c0 / c1)
            else:
                _quadratic_real_roots(c1 / c2, c0 / c2, roots)
        else:
            b, c, d = c2 / c3, c1 / c3, c0 / c3
            m = _cubic_max_real_root(b, c, d)
            roots.append(m)
            # deflate and take the remaining quadratic's real roots
            _quadratic_real_roots(b + m, c + m * (b + m), roots)
    elif abs(c4) <= _SMALL_LEADING * scale and abs(c0) > abs(c4):
        # a small leading coefficient puts a root near -c3/c4, and the
        # depressed quartic's terms of order (c3/c4)^4 swamp the moderate
        # roots; the reversed quartic's roots are the reciprocals, and its
        # leading coefficient c0 is the larger
        roots = [1.0 / w for w in _ferrari_roots(c0, c1, c2, c3, c4) if w != 0.0]
    else:
        roots = _ferrari_roots(c4, c3, c2, c1, c0)

    roots.sort()
    unique = []
    for x in roots:
        if not unique or abs(x - unique[-1]) > _DEDUP_RTOL * (1.0 + abs(x)):
            unique.append(x)
    return unique


def p3p_distance_sets(a2, b2, c2, ca, cb, cg):
    """Grunert P3P: distances from camera center to three world points.

    Parameters (Python floats)
    ----------
    a2, b2, c2 : squared triangle sides |P2-P3|^2, |P1-P3|^2, |P1-P2|^2.
    ca, cb, cg : cosines between the unit bearings of rays 2-3, 1-3, 1-2.

    Returns
    -------
    list of (s1, s2, s3) float tuples, at most four
        Distance triples, Newton-polished on the three law-of-cosines
        constraints, deduplicated and sorted by s1. A triple whose
        smallest distance is not above ``_DEDUP_RTOL`` times its largest
        (the camera at a vertex, by rounding) is dropped.
    """
    if min(a2, b2, c2) <= 0.0:
        return []

    q_ = a2 / b2
    cc = c2 / b2
    a4 = cc * cc - 2.0 * cc * q_ - 4.0 * cc * ca * ca + 2.0 * cc + q_ * q_ - 2.0 * q_ + 1.0
    a3 = -4.0 * (
        cc * cc * cb
        - 2.0 * cc * q_ * cb
        - 2.0 * cc * ca * ca * cb
        - cc * ca * cg
        + cc * cb
        + q_ * q_ * cb
        - q_ * ca * cg
        - q_ * cb
        + ca * cg
    )
    a2c = 2.0 * (
        2.0 * cc * cc * cb * cb
        + cc * cc
        - 4.0 * cc * q_ * cb * cb
        - 2.0 * cc * q_
        - 2.0 * cc * ca * ca
        - 4.0 * cc * ca * cb * cg
        + 2.0 * q_ * q_ * cb * cb
        + q_ * q_
        - 4.0 * q_ * ca * cb * cg
        - 2.0 * q_ * cg * cg
        + 2.0 * ca * ca
        + 2.0 * cg * cg
        - 1.0
    )
    a1 = -4.0 * (
        cc * cc * cb
        - 2.0 * cc * q_ * cb
        - cc * ca * cg
        - cc * cb
        + q_ * q_ * cb
        - q_ * ca * cg
        - 2.0 * q_ * cb * cg * cg
        + q_ * cb
        + ca * cg
    )
    a0 = cc * cc - 2.0 * cc * q_ - 2.0 * cc + q_ * q_ - 4.0 * q_ * cg * cg + 2.0 * q_ + 1.0

    big_a = q_ - cc
    sets = []
    for v in quartic_roots(a4, a3, a2c, a1, a0):
        if v <= 0:
            continue
        den_s1 = 1.0 + v * v - 2.0 * v * cb
        if den_s1 <= 0:
            continue
        denom = 2.0 * (cg - v * ca)
        if abs(denom) > _SHARED_ROOT_TOL * (1.0 + abs(v)):
            us = (((big_a - 1.0) * v * v - 2.0 * big_a * cb * v + big_a + 1.0) / denom,)
        else:
            # two solutions share this v, a double root that rounding can
            # split by 1e-6 or make complex, and the linear equation for u
            # degenerates: try both roots of the quadratic one and let the
            # polish decide; a discriminant that is negative only within
            # the rounding of its terms is taken as 0
            disc = cg * cg - 1.0 + cc * den_s1
            if disc < -_ROUNDING * (cg * cg + 1.0 + cc * (1.0 + v * v + 2.0 * v * abs(cb))):
                continue
            sq = math.sqrt(max(disc, 0.0))
            us = (cg + sq, cg - sq)
        s1 = math.sqrt(b2 / den_s1)
        for u in us:
            if u > 0:
                s = _polish_distances(s1, u * s1, v * s1, a2, b2, c2, ca, cb, cg)
                if s is not None:
                    sets.append(s)

    sets.sort()
    unique = []
    for s in sets:
        if all(max(abs(x - y) for x, y in zip(s, t)) > _DEDUP_RTOL * (1.0 + max(s)) for t in unique):
            unique.append(s)
    return unique


def _polish_distances(s1, s2, s3, a2, b2, c2, ca, cb, cg):
    """Newton-polish (s1, s2, s3) on the three distance constraints.

    The Jacobian has a zero diagonal, so each step is solved by Cramer's
    rule on its six off-diagonal entries. Returns None unless the polished
    triple meets the constraints and its smallest distance exceeds
    ``_DEDUP_RTOL`` times its largest.
    """
    scale = a2 + b2 + c2
    for _ in range(5):
        r0 = s2 * s2 + s3 * s3 - 2.0 * s2 * s3 * ca - a2
        r1 = s1 * s1 + s3 * s3 - 2.0 * s1 * s3 * cb - b2
        r2 = s1 * s1 + s2 * s2 - 2.0 * s1 * s2 * cg - c2
        if abs(r0) + abs(r1) + abs(r2) <= 1e-14 * scale:
            break
        j01, j02 = 2.0 * s2 - 2.0 * s3 * ca, 2.0 * s3 - 2.0 * s2 * ca
        j10, j12 = 2.0 * s1 - 2.0 * s3 * cb, 2.0 * s3 - 2.0 * s1 * cb
        j20, j21 = 2.0 * s1 - 2.0 * s2 * cg, 2.0 * s2 - 2.0 * s1 * cg
        det = j01 * j12 * j20 + j02 * j10 * j21
        if det == 0.0 or not math.isfinite(det):
            break
        s1 -= (j01 * j12 * r2 + j02 * j21 * r1 - j12 * j21 * r0) / det
        s2 -= (j12 * j20 * r0 + j02 * j10 * r2 - j02 * j20 * r1) / det
        s3 -= (j10 * j21 * r0 + j01 * j20 * r1 - j01 * j10 * r2) / det
    r0 = s2 * s2 + s3 * s3 - 2.0 * s2 * s3 * ca - a2
    r1 = s1 * s1 + s3 * s3 - 2.0 * s1 * s3 * cb - b2
    r2 = s1 * s1 + s2 * s2 - 2.0 * s1 * s2 * cg - c2
    if abs(r0) + abs(r1) + abs(r2) <= 1e-6 * scale and min(s1, s2, s3) > _DEDUP_RTOL * max(s1, s2, s3):
        return s1, s2, s3
    return None


def pixel_errors(cam, pixels, fx, fy, cx, cy):
    """Pixel distance of camera-frame points ``cam`` (..., 3) from
    ``pixels`` (..., 2), over any leading shape; inf where depth <= 0."""
    z = cam[..., 2]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # in place, so a stack of points needs no more than two temporaries
        du = fx * cam[..., 0]
        du /= z
        du += cx
        du -= pixels[..., 0]
        dv = fy * cam[..., 1]
        dv /= z
        dv += cy
        dv -= pixels[..., 1]
        err = np.hypot(du, dv, out=du)
    err[~(z > 0)] = np.inf
    return err


def reprojection_errors(rotation, translation, obj, pixels, fx, fy, cx, cy):
    """Per-point pixel reprojection error; inf where depth <= 0."""
    return pixel_errors(obj @ rotation.T + translation, pixels, fx, fy, cx, cy)


def reprojection_normal_eqs(rotation, translation, obj, pixels, fx, fy, cx, cy):
    """Normal equations of the reprojection cost for the Levenberg-Marquardt refine.

    The local parameterization is (omega, dt): the camera-frame point is
    exp(omega) @ (R x) + t + dt. With (x, y, z) that point, the pixel
    gradients are a_u = fx/z (1, 0, -x/z) and a_v = fy/z (0, 1, -y/z), and
    each pixel coordinate adds the Jacobian row [(R x) cross a, a], so
    JtJ = Ju^T Ju + Jv^T Jv. Points at non-positive depth are excluded.

    Returns (JtJ, Jtr, cost, n_valid).
    """
    rx = obj @ rotation.T
    pc = rx + translation
    ok = pc[:, 2] > 0
    n_valid = int(np.count_nonzero(ok))
    if n_valid == 0:
        return np.zeros((6, 6)), np.zeros(6), 0.0, 0

    r1, r2, r3 = rx[ok].T
    x, y, z = pc[ok].T
    invz = 1.0 / z
    xn, yn = x * invz, y * invz  # normalized image coordinates
    ru = fx * xn + cx - pixels[ok, 0]
    rv = fy * yn + cy - pixels[ok, 1]

    # Ju and Jv transposed, with (R x) cross a written out
    ju = np.empty((6, n_valid))
    ju[0], ju[1], ju[2], ju[3], ju[4], ju[5] = -r2 * xn, r3 + r1 * xn, -r2, 1.0, 0.0, -xn
    ju *= fx * invz
    jv = np.empty((6, n_valid))
    jv[0], jv[1], jv[2], jv[3], jv[4], jv[5] = -r2 * yn - r3, r1 * yn, r1, 0.0, 1.0, -yn
    jv *= fy * invz

    jtj = ju @ ju.T + jv @ jv.T
    jtr = ju @ ru + jv @ rv
    cost = float(ru @ ru + rv @ rv)
    return jtj, jtr, cost, n_valid


def backend_name():
    """Name of the kernel implementation: NumPy is the only one."""
    return "pure"
