"""Root-modulus classification of zeta ratios.

For a closed quotient with residue cardinality q, the zeta ratio factors as
(1 - u^3)^(chi - 1) P1(u) / ((1 - q^3 u^3) P2(u)); the quotient satisfies
the spectral temperedness criterion exactly when every root of P1 and P2 has
modulus q^(-1/2).  Factor extraction and the verdict are exact integer
arithmetic; only the reported root moduli are numeric.
"""

from btzeta import IntPolynomial, classify_ramanujan, gen_cycle_complex, polynomial_roots, ratio

U3 = IntPolynomial([1, 0, 0, -1])

print("A synthetic tempered ratio for q = 2, chi = 3:")
num = U3.pow(2) * IntPolynomial([1, -2, 2])       # planted pair of modulus sqrt(2)
den = IntPolynomial([1, 0, 0, -8]) * U3
report = classify_ramanujan((num, den), q=2, chi=3)
print("  verdict:", report.verdict)
print("  (1-u^3) exponent in the numerator:", report.euler_factor_exponent,
      "= chi - 1:", report.exponent_matches_chi)
print("  pole factor (1-8u^3) found:", report.pole_factor_found)
print("  residual root moduli:",
      [round(abs(z), 9) for z in report.P1_roots], "target:", round(2 ** -0.5, 9))

print()
print("Swap the tempered factor for (1 - 2u): its inverse root has modulus")
print("q, not sqrt(q), so it is a witness against temperedness:")
bad = classify_ramanujan((U3.pow(2) * IntPolynomial([1, -2]), den), q=2, chi=3)
print("  verdict:", bad.verdict)
print("  offending roots:", [round(abs(z), 6) for z in bad.offending_roots])

print()
print("Complexes without a residue cardinality are not building quotients,")
print("so the classifier refuses to guess:")
cycle = gen_cycle_complex(3)
print("  3-cycle ratio:", ratio(cycle))
print("  verdict:", classify_ramanujan(ratio(cycle), q=None).verdict)

print()
print("The verdict reads no root: 10^12 - u + (2*10^12 + 2) u^2 has roots within")
print("1e-12 of the critical modulus, so no float margin flags them, yet the")
print("exact test finds them off the circle:")
near = IntPolynomial([10 ** 12, -1, 2 * 10 ** 12 + 2])
close = classify_ramanujan((U3.pow(2) * near, den), q=2, chi=3)
print("  verdict:", close.verdict, "| offending roots reported:", len(close.offending_roots))
print("  root moduli:", [f"{abs(z):.15f}" for z in polynomial_roots(near)],
      "target:", f"{2 ** -0.5:.15f}")
