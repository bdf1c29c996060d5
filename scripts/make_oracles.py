"""Regenerate the high-precision constants frozen into the test suite.

Everything here is computed with mpmath at 40 significant digits, fully
independently of the library code (no imports from matern_interference),
so the frozen literals in tests/ act as an external oracle. Run:

    python3 scripts/make_oracles.py
"""

from __future__ import annotations

import mpmath as mp

mp.mp.dps = 40


def v_union(delta, u):
    delta = mp.mpf(delta)
    u = mp.mpf(u)
    if u >= 2 * delta:
        return 2 * mp.pi * delta**2
    return (2 * mp.pi * delta**2 - 2 * delta**2 * mp.acos(u / (2 * delta))
            + u * mp.sqrt(delta**2 - u**2 / 4))


def dense_type1_eir_db(lam, alpha):
    """Type I EIR in dB at delta = 1 by quadrature of the exact kernel.

    ln EIR = P + ln(I~ + e^-P * outer) - ln(reference), with the kernel
    scaled by its peak e^P at r = delta; it falls from there over
    w = 1/(sqrt(3) lambda_p delta), so the quadrature is cut at
    delta + 4^k w.
    """
    pi, one = mp.pi, mp.mpf(1)
    lam, alpha = mp.mpf(lam), mp.mpf(alpha)
    peak = v_union(one, one)
    w = 1 / (mp.sqrt(3) * lam)
    knots = [1 + w * 4**k for k in range(40) if w * 4**k < 1]
    scaled = mp.quad(lambda r: 2 * pi * r**(1 - alpha)
                     * mp.e**(lam * (peak - v_union(one, r))), [one, *knots, 2])
    log_peak = lam * (2 * pi - peak)
    outer = 2 * pi * 2**(2 - alpha) / (alpha - 2)
    reference = 2 * pi / (alpha - 2)
    log_eir = log_peak + mp.log(scaled + mp.e**(-log_peak) * outer) - mp.log(reference)
    return 10 * log_eir / mp.log(10)


def affine_eir_db(c, alpha, a, b):
    """The paper's affine-bound type I EIR in dB at delta = 1, for
    c = lambda_p*delta^2 and the comparison line a + b*r on the union area.

    ln EIR = ln(t + 1) - (alpha - 2) ln 2, where t is the transition-annulus
    interference over the tail's: e^(c (pi - a)) times the integral of
    r^(1 - alpha) e^(-c b r) over [1, 2], an incomplete gamma of order
    2 - alpha, over the tail integral from 2.
    """
    c, alpha = mp.mpf(c), mp.mpf(alpha)
    v = c * b
    inner = v**(alpha - 2) * mp.gammainc(2 - alpha, a=v, b=2 * v)
    tail = mp.mpf(2)**(2 - alpha) / (alpha - 2)
    t = mp.e**(c * (mp.pi - a)) * inner / tail
    return 10 * (mp.log(t + 1) - (alpha - 2) * mp.log(2)) / mp.log(10)


def main() -> None:
    pi = mp.pi

    print("== affine bound constants ==")
    a_tan = 2 * mp.asin(mp.mpf(3) / 4) - 3 * mp.sqrt(7) / 8
    b_tan = mp.sqrt(7) / 2
    a_cho = mp.sqrt(3) - pi / 3
    b_cho = 2 * pi / 3 - mp.sqrt(3) / 2
    print("tangent a,b:", mp.nstr(a_tan, 17), mp.nstr(b_tan, 17))
    print("chord   a,b:", mp.nstr(a_cho, 17), mp.nstr(b_cho, 17))
    print("growth exponent pi-a-b (tangent):", mp.nstr(pi - a_tan - b_tan, 17))

    print("== intensities (lambda_p=2, delta=0.5) ==")
    lam, d = mp.mpf(2), mp.mpf("0.5")
    x = lam * pi * d**2
    print("type1:", mp.nstr(lam * mp.e**(-x), 17))
    print("type2:", mp.nstr((1 - mp.e**(-x)) / (pi * d**2), 17))

    print("== v_union(1,1) ==", mp.nstr(v_union(1, 1), 17))

    print("== transition integral at lambda_p=2, delta=1 ==")
    f = lambda r: r * mp.e**(-2 * v_union(1, r))
    print("int_1^2 r exp(-2 V_1(r)) dr =",
          mp.nstr(mp.quad(f, [1, 2]), 17))

    print("== type I inner interference, lambda_p=2, delta=1, alpha=3 ==")
    g = lambda r: 4 * pi * r**-2 * mp.e**(2 * (pi - v_union(1, r)))
    print("I_in =", mp.nstr(mp.quad(g, [1, mp.mpf(3) / 2, 2]), 17))
    print("I_beyond = 4*pi*int_2^inf r^-2 dr =", mp.nstr(2 * pi * lam *
          mp.e**(-lam * pi) * mp.quad(lambda r: r**-2, [2, mp.inf]), 17))

    print("== K' transition exponent at r=delta (lambda_p=2, delta=1) ==")
    print("exp arg:", mp.nstr(2 * (2 * pi - v_union(1, 1)), 17))

    print("== K(2 delta) lower bound, lambda_p=2, delta=1 ==")
    val = (2 * pi / (mp.sqrt(3) * lam)) * (mp.e**(lam * (2 * pi / 3 - mp.sqrt(3) / 2)) - 1)
    print("bound:", mp.nstr(val, 17))

    print("== type II universal EIR cap ==")
    nu = 12 * pi / (8 * pi + 3 * mp.sqrt(3))
    print("nu:", mp.nstr(nu, 17), " dB:", mp.nstr(10 * mp.log10(nu), 17))
    for alpha in (mp.mpf("2.5"), mp.mpf(3), mp.mpf(4)):
        s = nu - (nu - 1) * mp.mpf(2)**(2 - alpha)
        print(f"sharpened alpha={alpha}:", mp.nstr(s, 17),
              " dB:", mp.nstr(10 * mp.log10(s), 17))

    print("== type I EIR approximation, lambda_p=2, delta=2, alpha=3 ==")
    lam2, d2, alpha = mp.mpf(2), mp.mpf(2), mp.mpf(3)
    appr = ((alpha - 2) * 2**(alpha - 2)
            * mp.e**(lam2 * d2**2 * (pi - a_tan - b_tan))
            / (lam2 * b_tan * d2**2))
    print("linear:", mp.nstr(appr, 17), " dB:", mp.nstr(10 * mp.log10(appr), 17))

    print("== dense type I EIR by quadrature, lambda_p=4, alpha=3 (dB) ==")
    lam4, alpha3 = mp.mpf(4), mp.mpf(3)
    for d in (3, 5, 7):
        d = mp.mpf(d)
        k1 = lambda r: 2 * pi * r * mp.e**(lam4 * (2 * pi * d**2 - v_union(d, r)))
        # K' falls from its peak at r = delta over about 1/(lambda_p sqrt(3) delta)
        inner = mp.quad(lambda r: r**-alpha3 * k1(r),
                        [d, d + mp.mpf(1) / 64, d + mp.mpf(1) / 8, d + 1, 2 * d])
        tail = 2 * pi * (2 * d)**(2 - alpha3) / (alpha3 - 2)
        ratio = (inner / tail + 1) / 2**(alpha3 - 2)
        print(f"delta={mp.nstr(d, 3)}:", mp.nstr(10 * mp.log10(ratio), 17))

    print("== dense type I transition interference, lambda_p=4, alpha=3 ==")
    for d in ("7.7", "8", "9"):
        d = mp.mpf(d)
        k1 = lambda r: 2 * pi * r * mp.e**(lam4 * (2 * pi * d**2 - v_union(d, r)))
        inner = mp.quad(lambda r: r**-alpha3 * k1(r),
                        [d, d + mp.mpf(1) / 64, d + mp.mpf(1) / 8, d + 1, 2 * d])
        lam_type1 = lam4 * mp.e**(-lam4 * pi * d**2)
        print(f"delta={mp.nstr(d, 3)}:", mp.nstr(lam_type1 * inner, 17))

    print("== dense type I EIR by quadrature, delta=1 (dB) ==")
    for lam, alpha in (("1e3", 3), ("1e4", 3), ("1e6", 3), ("1e4", 4)):
        print(f"lambda_p={lam} alpha={alpha}:",
              mp.nstr(dense_type1_eir_db(lam, alpha), 17))

    print("== type I EIR where the boundary layer passes the first node, delta=1 (dB) ==")
    for lam, alpha in (("2200", 3), ("3000", 3), ("5000", 3), ("8500", 3), ("3000", 6)):
        print(f"lambda_p={lam} alpha={alpha}:",
              mp.nstr(dense_type1_eir_db(lam, alpha), 17))

    print("== dense type I affine-bound EIR, delta=8, alpha=3 ==")
    # h_bound / interference_outside_2delta without lambda: the closed-form
    # transition integral through the incomplete gamma of order 2 - alpha
    d8 = mp.mpf(8)

    def bound_ratio(lam, a, b, d):
        v = lam * b * d
        inner = v**(alpha3 - 2) * mp.gammainc(2 - alpha3, a=v * d, b=2 * v * d)
        tail = (2 * d)**(2 - alpha3) / (alpha3 - 2)
        return mp.e**(lam * d**2 * (pi - a)) * inner / tail

    for lam in ("3.7", "3.8"):
        lam = mp.mpf(lam)
        for name, a, b in (("lower", a_tan, b_tan), ("upper", a_cho, b_cho)):
            e = (bound_ratio(lam, a, b, d8) + 1) / 2**(alpha3 - 2)
            print(f"lambda_p={mp.nstr(lam, 3)} {name}:", mp.nstr(e, 17),
                  " dB:", mp.nstr(10 * mp.log10(e), 17))

    print("== affine-bound type I EIR past the linear float range, "
          "lambda_p=10, delta=8, alpha=3 (dB) ==")
    for name, a, b in (("lower", a_tan, b_tan), ("upper", a_cho, b_cho)):
        print(f"eir_{name}_db:", mp.nstr(affine_eir_db(10 * d8**2, alpha3, a, b), 17))

    print("== dense type I figure1 means over lambda, lambda_p=4, delta=9, alpha=3 ==")
    d9 = mp.mpf(9)
    beyond = 2 * pi * (2 * d9)**(2 - alpha3) / (alpha3 - 2)
    for name, a, b in (("lower", a_tan, b_tan), ("upper", a_cho, b_cho)):
        print(f"matern1_{name}:", mp.nstr((bound_ratio(lam4, a, b, d9) + 1) * beyond, 17))
    # the EIR depends on lambda_p*delta^2 and alpha alone: 4 * 9^2 = 324 at
    # delta = 1, times the Poisson-hole mean over lambda at delta = 9
    eir_d9 = 10 ** (dense_type1_eir_db(324, alpha3) / 10)
    print("matern1_quadrature:",
          mp.nstr(eir_d9 * 2 * pi * d9**(2 - alpha3) / (alpha3 - 2), 17))

    print("== sparse type I bounds rows, lambda_p=1e-60, delta=1, alpha=8 ==")
    # lambda_p*b*delta is far below where e^x Gamma(2 - alpha, x) fits a float
    lam60, alpha8 = mp.mpf("1e-60"), mp.mpf(8)
    beyond = (2 * pi * lam60 * mp.e**(-lam60 * pi) * 2**(2 - alpha8)
              / (alpha8 - 2))
    sparse = {}
    for name, a, b in (("lower", a_tan, b_tan), ("upper", a_cho, b_cho)):
        h = 2 * pi * lam60 * mp.e**(-lam60 * a) * mp.quad(
            lambda r: r**(1 - alpha8) * mp.e**(-lam60 * b * r), [1, 2])
        e = (h / beyond + 1) / 2**(alpha8 - 2)
        sparse[f"transition_interference_{name}"] = h
        sparse[f"eir_{name}_linear"] = e
        sparse[f"eir_{name}_db"] = 10 * mp.log10(e)
    sparse["interference_beyond_2delta"] = beyond
    appr = ((alpha8 - 2) * 2**(alpha8 - 2) * mp.e**(lam60 * (pi - a_tan - b_tan))
            / (lam60 * b_tan))
    sparse["eir_approximation_linear"] = appr
    sparse["eir_approximation_db"] = 10 * mp.log10(appr)
    for name, value in sparse.items():
        print(f"{name}:", mp.nstr(value, 17))

    print("== type II Palm origin mark (lambda_p=2, delta=0.5) ==")
    # density x e^(-x m) / (1 - e^(-x)) on [0, 1]; the ball then holds
    # x (1 - m) parents on average
    mean_mark = 1 / x - 1 / mp.expm1(x)
    print("E[m0]:", mp.nstr(mean_mark, 17),
          " interior count:", mp.nstr(x * (1 - mean_mark), 17))

    print("== type I means at subnormal lambda, lambda_p=3.7, delta=8, alpha=3 ==")
    lam37 = mp.mpf("3.7")
    lam_type1 = lam37 * mp.e**(-lam37 * pi * d8**2)
    for name, start in (("interference_beyond_2delta", 2 * d8),
                        ("mean_poisson_hole", d8)):
        print(f"{name}:", mp.nstr(2 * pi * lam_type1 * start**(2 - alpha3)
                                  / (alpha3 - 2), 17))

    print("== scaled upper incomplete gamma grid: e^x Gamma(s, x) ==")
    s_grid = ["-3.5", "-3", "-2.5", "-2", "-1.5", "-1", "-0.5",
              "0", "0.5", "1", "2.5"]
    x_grid = ["0.001", "0.01", "0.1", "0.5", "1", "2", "5", "10",
              "50", "100", "700"]
    print("_GAMMA_ORACLE = [")
    for s_str in s_grid:
        s = mp.mpf(s_str)
        for x_str in x_grid:
            xx = mp.mpf(x_str)
            val = mp.e**xx * mp.gammainc(s, a=xx, b=mp.inf)
            print(f"    ({s_str}, {x_str}, {mp.nstr(val, 17)}),")
    print("]")
    xx = mp.mpf("3e16")
    print("s=-2.5, x=3e16:",
          mp.nstr(mp.e**xx * mp.gammainc(mp.mpf("-2.5"), a=xx, b=mp.inf), 17))


if __name__ == "__main__":
    main()
