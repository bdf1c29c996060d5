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

    print("== dense type I figure1 means over lambda, lambda_p=4, delta=9, alpha=3 ==")
    d9 = mp.mpf(9)
    beyond = 2 * pi * (2 * d9)**(2 - alpha3) / (alpha3 - 2)
    for name, a, b in (("lower", a_tan, b_tan), ("upper", a_cho, b_cho)):
        print(f"matern1_{name}:", mp.nstr((bound_ratio(lam4, a, b, d9) + 1) * beyond, 17))

    print("== type II palm acceptance rate (lambda_p=2, delta=0.5) ==")
    print(mp.nstr((1 - mp.e**(-x)) / x, 17))

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


if __name__ == "__main__":
    main()
