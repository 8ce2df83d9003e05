"""Hot numeric kernels behind the solvers, in NumPy.

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

Grunert's P3P and the Ferrari quartic stay scalar Python on purpose:
``math.acos``, ``math.sqrt`` and ``**`` on Python floats are what the
pinned RANSAC results were computed with, and NumPy's array versions
differ from them in the last bit on some inputs.
"""

import math

import numpy as np

# Relative tolerance for merging duplicate polynomial roots / distance sets.
_DEDUP_RTOL = 1e-8


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
    # two Newton steps sharpen the Cardano/trig result
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
        if disc > -1e-12 * max(1.0, b * b + abs(c)):
            out.append(-0.5 * b)
        return
    sq = math.sqrt(disc)
    q = -0.5 * (b + math.copysign(sq, b))
    out.append(q)
    if q != 0.0:
        out.append(c / q)
    else:
        out.append(-b - q)


def quartic_roots(c4, c3, c2, c1, c0):
    """Real roots of c4 x^4 + c3 x^3 + c2 x^2 + c1 x + c0, ascending.

    Ferrari resolvent-cubic factorization followed by Newton polishing on
    the original quartic; near-coincident roots are merged. Degenerate
    leading coefficients fall through to the cubic/quadratic/linear case.
    """
    coeffs = (c4, c3, c2, c1, c0)
    scale = max(abs(c) for c in coeffs)
    if scale == 0.0:
        return np.empty(0)
    roots = []
    if abs(c4) <= 1e-14 * scale:
        if abs(c3) <= 1e-14 * scale:
            if abs(c2) <= 1e-14 * scale:
                if abs(c1) > 1e-14 * scale:
                    roots.append(-c0 / c1)
            else:
                _quadratic_real_roots(c1 / c2, c0 / c2, roots)
        else:
            b, c, d = c2 / c3, c1 / c3, c0 / c3
            m = _cubic_max_real_root(b, c, d)
            roots.append(m)
            # deflate and take the remaining quadratic's real roots
            _quadratic_real_roots(b + m, c + m * (b + m), roots)
    else:
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
        roots = [y + shift for y in ys]

    # polish on the full-precision original polynomial
    polished = []
    for x in roots:
        for _ in range(3):
            f = (((c4 * x + c3) * x + c2) * x + c1) * x + c0
            df = ((4.0 * c4 * x + 3.0 * c3) * x + 2.0 * c2) * x + c1
            if df == 0.0:
                break
            step = f / df
            x -= step
            if abs(step) <= 1e-14 * (1.0 + abs(x)):
                break
        polished.append(x)

    polished.sort()
    unique = []
    for x in polished:
        if not unique or abs(x - unique[-1]) > _DEDUP_RTOL * (1.0 + abs(x)):
            unique.append(x)
    return np.asarray(unique, dtype=np.float64)


def p3p_distance_sets(obj, bearings):
    """Grunert P3P: distances from camera center to three world points.

    Parameters
    ----------
    obj : (3, 3) float64
        World/model points P1, P2, P3 (rows).
    bearings : (3, 3) float64
        Unit bearing vectors of the corresponding image rays (rows).

    Returns
    -------
    (K, 3) float64, K <= 4
        Positive distance triples (s1, s2, s3), Newton-polished on the
        three law-of-cosines constraints and deduplicated.
    """
    obj = np.asarray(obj, dtype=np.float64)
    f = np.asarray(bearings, dtype=np.float64)
    a2 = float(np.sum((obj[1] - obj[2]) ** 2))
    b2 = float(np.sum((obj[0] - obj[2]) ** 2))
    c2 = float(np.sum((obj[0] - obj[1]) ** 2))
    if min(a2, b2, c2) <= 0.0:
        return np.empty((0, 3))
    ca = float(f[1] @ f[2])
    cb = float(f[0] @ f[2])
    cg = float(f[0] @ f[1])

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
        if abs(denom) > 1e-9 * (1.0 + abs(v)):
            u = ((big_a - 1.0) * v * v - 2.0 * big_a * cb * v + big_a + 1.0) / denom
        else:
            # fall back to the quadratic for u; keep the root consistent
            # with the first law-of-cosines equation
            disc = cg * cg - 1.0 + cc * den_s1
            if disc < 0:
                continue
            best_u, best_res = None, np.inf
            for u_cand in (cg + math.sqrt(disc), cg - math.sqrt(disc)):
                res = abs(u_cand * u_cand + v * v - 2.0 * u_cand * v * ca - q_ * den_s1)
                if res < best_res:
                    best_u, best_res = u_cand, res
            u = best_u
        if u is None or u <= 0:
            continue
        s1 = math.sqrt(b2 / den_s1)
        s = np.array([s1, u * s1, v * s1])
        s = _polish_distances(s, a2, b2, c2, ca, cb, cg)
        if s is None:
            continue
        sets.append(s)

    if not sets:
        return np.empty((0, 3))
    sets.sort(key=lambda t: t[0])
    unique = [sets[0]]
    for s in sets[1:]:
        if abs(s[0] - unique[-1][0]) > _DEDUP_RTOL * (1.0 + abs(s[0])):
            unique.append(s)
    return np.asarray(unique)


def _polish_distances(s, a2, b2, c2, ca, cb, cg):
    """Newton-polish (s1, s2, s3) on the three distance constraints."""
    scale = a2 + b2 + c2
    s1, s2, s3 = s
    for _ in range(5):
        r0 = s2 * s2 + s3 * s3 - 2.0 * s2 * s3 * ca - a2
        r1 = s1 * s1 + s3 * s3 - 2.0 * s1 * s3 * cb - b2
        r2 = s1 * s1 + s2 * s2 - 2.0 * s1 * s2 * cg - c2
        if abs(r0) + abs(r1) + abs(r2) <= 1e-14 * scale:
            break
        j = np.array(
            [
                [0.0, 2.0 * s2 - 2.0 * s3 * ca, 2.0 * s3 - 2.0 * s2 * ca],
                [2.0 * s1 - 2.0 * s3 * cb, 0.0, 2.0 * s3 - 2.0 * s1 * cb],
                [2.0 * s1 - 2.0 * s2 * cg, 2.0 * s2 - 2.0 * s1 * cg, 0.0],
            ]
        )
        det = (
            j[0, 1] * (j[1, 2] * j[2, 0] - j[1, 0] * j[2, 2])
            + j[0, 2] * (j[1, 0] * j[2, 1] - j[1, 1] * j[2, 0])
            - j[0, 0] * (j[1, 1] * j[2, 2] - j[1, 2] * j[2, 1])
        )
        if det == 0.0 or not math.isfinite(det):
            break
        try:
            delta = np.linalg.solve(j, [r0, r1, r2])
        except np.linalg.LinAlgError:
            break
        s1, s2, s3 = s1 - delta[0], s2 - delta[1], s3 - delta[2]
    r0 = s2 * s2 + s3 * s3 - 2.0 * s2 * s3 * ca - a2
    r1 = s1 * s1 + s3 * s3 - 2.0 * s1 * s3 * cb - b2
    r2 = s1 * s1 + s2 * s2 - 2.0 * s1 * s2 * cg - c2
    if abs(r0) + abs(r1) + abs(r2) > 1e-6 * scale:
        return None
    if s1 <= 0 or s2 <= 0 or s3 <= 0:
        return None
    return np.array([s1, s2, s3])


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
    rotation = np.asarray(rotation, dtype=np.float64)
    translation = np.asarray(translation, dtype=np.float64)
    obj = np.asarray(obj, dtype=np.float64)
    pixels = np.asarray(pixels, dtype=np.float64)
    return pixel_errors(obj @ rotation.T + translation, pixels, fx, fy, cx, cy)


def reprojection_normal_eqs(rotation, translation, obj, pixels, fx, fy, cx, cy):
    """Gauss-Newton normal equations for the reprojection cost.

    The local parameterization is (omega, dt): the camera-frame point is
    exp(omega) @ (R x) + t + dt, so the Jacobian blocks per point are
    d(pi)/dX @ [-skew(R x) | I]. Points at non-positive depth are excluded.

    Returns (JtJ, Jtr, cost, n_valid).
    """
    rotation = np.asarray(rotation, dtype=np.float64)
    translation = np.asarray(translation, dtype=np.float64)
    obj = np.asarray(obj, dtype=np.float64)
    pixels = np.asarray(pixels, dtype=np.float64)

    rx = obj @ rotation.T
    pc = rx + translation
    ok = pc[:, 2] > 0
    n_valid = int(np.count_nonzero(ok))
    if n_valid == 0:
        return np.zeros((6, 6)), np.zeros(6), 0.0, 0

    rx = rx[ok]
    pc = pc[ok]
    px = pixels[ok]
    x, y, z = pc[:, 0], pc[:, 1], pc[:, 2]
    invz = 1.0 / z

    ru = fx * x * invz + cx - px[:, 0]
    rv = fy * y * invz + cy - px[:, 1]

    # d(pi)/dX rows stacked per point: (k, 2, 3)
    k = n_valid
    dpi = np.zeros((k, 2, 3))
    dpi[:, 0, 0] = fx * invz
    dpi[:, 0, 2] = -fx * x * invz * invz
    dpi[:, 1, 1] = fy * invz
    dpi[:, 1, 2] = -fy * y * invz * invz

    dx = np.zeros((k, 3, 6))
    # -skew(rx): column j is d(exp(w) rx)/dw_j at w = 0
    dx[:, 0, 1] = rx[:, 2]
    dx[:, 0, 2] = -rx[:, 1]
    dx[:, 1, 0] = -rx[:, 2]
    dx[:, 1, 2] = rx[:, 0]
    dx[:, 2, 0] = rx[:, 1]
    dx[:, 2, 1] = -rx[:, 0]
    dx[:, 0, 3] = 1.0
    dx[:, 1, 4] = 1.0
    dx[:, 2, 5] = 1.0

    jac = np.einsum("kij,kjl->kil", dpi, dx).reshape(2 * k, 6)
    res = np.empty(2 * k)
    res[0::2] = ru
    res[1::2] = rv

    jtj = jac.T @ jac
    jtr = jac.T @ res
    cost = float(res @ res)
    return jtj, jtr, cost, n_valid


def backend_name():
    """Name of the kernel implementation: NumPy is the only one."""
    return "pure"
