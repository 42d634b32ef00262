"""Reference constants for the elimination chain the identity suite verifies.

Every transcribed polynomial lives here, in the project's textual format
over the canonical variables: x, y, z are the moving point, a, b, g the
difference triple, u the family parameter, xi a formal 7th root of u.
The identity layer recomputes each derived object independently and
compares against these constants, so a transcription slip surfaces as a
failing check with a nonzero discrepancy polynomial rather than as a
silently wrong pipeline.

Keep this file free of computation: strings and exponent tuples only.
"""

# The three defining equations of the linearized difference system.
SYSTEM_EQ1 = "a*x^2 + a^2*x + u*g*y^2 + u*b^2*z"
SYSTEM_EQ2 = "b*y^2 + b^2*y + u*a*z^2 + u*g^2*x"
SYSTEM_EQ3 = "g*z^2 + g^2*z + u*b*x^2 + u*a^2*y"

# Eliminating z against the first equation leaves two quartics in x:
# Res(EQ1, EQ2, z) = Z_ELIMINANT_1_SCALE * Z_ELIMINANT_1 and
# Res(EQ1, EQ3, z) = Z_ELIMINANT_2_SCALE * Z_ELIMINANT_2.  The identity check
# looks both scales up by name and reports them.
Z_ELIMINANT_1 = ("a^3*x^4 + a^5*x^2 + u^2*b^4*g^2*x + u^2*a*g^2*y^4"
                 " + u*b^5*y^2 + u*b^6*y")
Z_ELIMINANT_1_SCALE = "u"
Z_ELIMINANT_2 = ("a^2*g*x^4 + a^4*g*x^2 + u*a*b^2*g^2*x^2 + u^3*b^5*x^2"
                 " + u*a^2*b^2*g^2*x + u^2*g^3*y^4 + u^2*b^2*g^3*y^2 + u^3*a^2*b^4*y")
Z_ELIMINANT_2_SCALE = "1"

# The combination g*Z1 + a*Z2 kills the x^4 term and equals
# COMBINATION_SCALE times this quadratic-in-x equation.
QUADRATIC_EQ = ("a^2*g^2*x^2 + u^2*a*b^3*x^2 + a^3*g^2*x + u*b^2*g^3*x"
                " + u*a*g^3*y^2 + b^3*g*y^2 + u^2*a^3*b^2*y + b^4*g*y")
COMBINATION_SCALE = "u*b^2"

# Solving the quadratic equation for x^2: x^2 = X2_NUMERATOR / X2_DENOMINATOR.
X2_DENOMINATOR = "a^2*g^2 + u^2*a*b^3"
X2_NUMERATOR = ("a^3*g^2*x + u*b^2*g^3*x + u*a*g^3*y^2 + b^3*g*y^2"
                " + u^2*a^3*b^2*y + b^4*g*y")

# x^4 = (X4_A*x + X4_B*y^4 + X4_C*y^2 + X4_D*y) / X2_DENOMINATOR^3,
# coefficients transcribed in their factored form.
X4_A_FACTORS = (("g^6", 1), ("a^3 + u*b^2*g", 3))
X4_B_FACTORS = (("a*g^2", 1), ("a*g^2 + u^2*b^3", 1), ("u*a*g^2 + b^3", 2))
X4_C_FACTORS = (("a^4*g^2 + u^2*a^3*b^3 + u*a*b^2*g^3 + b^5*g", 1),
                ("u^4*a^4*b^4 + u*a^3*g^5 + u^3*a^2*b^3*g^3 + a^2*b^3*g^3"
                 " + u^2*a*b^6*g + u^2*b^2*g^6", 1))
X4_D_FACTORS = (("g^4*b^2", 1), ("a^3 + u*b^2*g", 2), ("u^2*a^3 + b^2*g", 1))

# Substituting the x^2 and x^4 expressions back into the first z-eliminant
# (cleared by X2_DENOMINATOR^3) gives
# LINEARIZED_SCALE * (u^3*b^6*g^2 * OBSTRUCTION_FORM * x + LINEARIZED_RHS).
# The obstruction form is a degree-7 form with no nonzero roots whenever u
# is not a 7th power, which makes the x coefficient invertible.
OBSTRUCTION_FORM = ("u*a^7 + u^2*a^4*b^2*g + u*a^2*b*g^4 + u^3*a*b^4*g^2"
                    " + u^5*b^7 + g^7")
LINEARIZED_X_COEFF_FACTORS = (("u^3*b^6*g^2", 1),)
LINEARIZED_SCALE = "a^3"

LINEARIZED_RHS_Y4_FACTORS = (("u + 1", 2), ("u^2 + u + 1", 2), ("a*b^6*g^2", 1),
                             ("a*g^2 + u^2*b^3", 1))
LINEARIZED_RHS_Y2_FACTORS = (("b^4", 1),
                             ("u^4*a^8*g^2 + u^6*a^7*b^3 + u^5*a^5*b^2*g^3"
                              " + u^4*a^4*b^5*g + u*a^3*b*g^6 + u^3*a^2*b^4*g^4"
                              " + a^2*b^4*g^4 + u^5*a*b^7*g^2 + u^2*a*b^7*g^2"
                              " + u^3*a*g^9 + u^7*b^10 + u^2*b^3*g^7", 1))
LINEARIZED_RHS_Y1_FACTORS = (("u*b^6", 1),
                             ("u^5*a^7*b^2 + u^3*a^4*b^4*g + u^3*a^3*g^6 + a^3*g^6"
                              " + u^2*a^2*b^3*g^4 + u^4*a*b^6*g^2 + u^6*b^9"
                              " + u*b^2*g^7", 1))

# The obstruction form splits into seven conjugate linear factors
# xi^5*b + eta^i*xi*a + eta^j*g over GF(8)[xi] with xi^7 standing for u.
# The exponent pairs follow the pattern (k, 3k mod 7); the k=3 entry is the
# unique choice under which the product expands back to the form (each eta
# power must occur exactly once on the a-term).
OBSTRUCTION_FACTOR_ETA_POWERS = ((0, 0), (1, 3), (2, 6), (3, 2), (4, 5), (5, 1), (6, 4))

# Eliminating x from the linearized pair factors the eliminant as
# ELIMINANT_MONOMIAL * (a*g^2 + u^2*b^3)^3 * y * (y + b) * S, where the
# reference form of the full eliminant carries the extra monomial
# ELIMINANT_DISPLAY_SCALE, and S = sum_k SURFACE_COEFF_k * y^k is the
# surface polynomial.  The y^2 coefficient is computed, never transcribed:
# its reference form carries a stray factor, so the suite derives it and
# checks the b-multiple relation between the y^1 and y^2 coefficients plus
# the g=0 collapse instead.
ELIMINANT_MONOMIAL = "a*b^8"
ELIMINANT_CUBE_FACTOR = "a*g^2 + u^2*b^3"
ELIMINANT_DISPLAY_SCALE = "u*b^2"
SURFACE_COEFF_6_FACTORS = (("u + 1", 4), ("u^2 + u + 1", 4), ("a^2*b^4*g^4", 1))
SURFACE_COEFF_5_FACTORS = (("u + 1", 4), ("u^2 + u + 1", 4), ("a^2*b^5*g^4", 1))
SURFACE_COEFF_4_FACTORS = (("u + 1", 4), ("u^2 + u + 1", 4), ("a^2*b^6*g^4", 1))
SURFACE_COEFF_3_FACTORS = (("u + 1", 4), ("u^2 + u + 1", 4), ("a^2*b^7*g^4", 1))
SURFACE_COEFF_0_FACTORS = (("u^4", 1), ("u + 1", 1), ("u^2 + u + 1", 1),
                           ("a^2*b^3*g^4", 1), (OBSTRUCTION_FORM, 1))

# Setting g = 0 collapses the surface polynomial to this curve.
GAMMA0_CURVE_FACTORS = (("u^8", 1), ("a^7 + u*b^7", 2), ("y", 1), ("y + b", 1))

# The excluded parameter locus a = u^2*b^3/g^2: substituting it (cleared by
# g^2 per power of a) into the quadratic equation kills the x^2 term and
# leaves DEGENERATE_LINEAR_SCALE times this linear-in-x equation.
DEGENERATE_SUBSTITUTION = ("a", "u^2*b^3", "g^2")
DEGENERATE_LINEAR_TERMS = ((("u*g^2", 1), ("u^5*b^7 + g^7", 1), ("x", 1)),
                           (("b", 1),
                            ("u^3*g^7*y^2 + g^7*y^2 + u^8*b^8*y + b*g^7*y", 1)))
DEGENERATE_LINEAR_SCALE = "b^2"

# Eliminating x on the degenerate locus yields a degree-8 polynomial in y:
# DEGENERATE_ELIMINANT_SCALE * eliminant equals this reference product.
DEGENERATE_ELIMINANT_MONOMIAL_FACTORS = (("u^10*g^4*b^19", 1), ("y", 1), ("y + b", 1))
DEGENERATE_ELIMINANT_BLOCKS = (
    ((("u + 1", 4), ("u^2 + u + 1", 4), ("b^10*g^28", 1),
      ("y^6 + b*y^5 + b^2*y^4 + b^3*y^3", 1))),
    ((("u^2", 1), ("u^5*b^7 + g^7", 2),
      ("u^10*b^14 + u^5*b^7*g^7 + u^2*b^7*g^7 + g^14", 2), ("y^2 + b*y", 1))),
    ((("u^4", 1), ("u + 1", 1), ("u^2 + u + 1", 1), ("u^5*b^7 + g^7", 3),
      ("b^9*g^14", 1))),
)
DEGENERATE_ELIMINANT_LEADING_BLOCK_FACTORS = (("u + 1", 4), ("u^2 + u + 1", 4),
                                              ("b^10*g^28", 1))
DEGENERATE_ELIMINANT_SCALE = "u^4*b^8"
