"""
Prime-field arithmetic and the index combinatorics
==================================================

Everything downstream is indexed by compositions, weight matrices, weight
3-tensors and tableaux, with all coefficients living in F_p.  This script
walks through the basic vocabulary.
"""

from weylkit import (
    Tableau,
    binom_mod,
    dominates,
    enumerate_compositions,
    enumerate_omega,
    enumerate_sst,
    enumerate_theta,
    kostka,
    matrix_margins,
    multinom_mod,
)

# Binomials mod p are computed digit by digit in base p, so huge arguments
# are fine and nothing ever overflows.
print("C(7, 2) mod 3  =", binom_mod(7, 2, 3))
print("C(10**9 + 8, 3) mod 2 =", binom_mod(10**9 + 8, 3, 2))
print("multinomial 4!/(2!1!1!) mod 3 =", multinom_mod(4, [2, 1, 1], 3))
print()

# Compositions of r with n parts, in the fixed descending order used for
# every basis in the package.
print("compositions of 3 into 2 parts:", enumerate_compositions(2, 3))
print("(2,0) dominates (1,1):", dominates((2, 0), (1, 1)))
print()

# Weight matrices are contingency tables: margins are (column sums, row sums).
w = ((1, 1), (0, 0))
print("margins of", w, "=", matrix_margins(w))
print("matrices with row margin (1,1) and column margin (1,1):")
for m in enumerate_omega((1, 1), (1, 1)):
    print("   ", m)
print()

# Weight 3-tensors link two matrices; they index the terms of a product in
# the Schur algebra.
thetas = enumerate_theta(((1, 1), (0, 0)), ((1, 0), (1, 0)))
print("linking tensors for the pair above:", thetas)
print()

# Tableaux are stored as count matrices; semistandard ones are enumerated
# per shape and weight, and counted by Kostka numbers.
mu, alpha = (2, 1, 0), (1, 1, 1)
print(f"semistandard tableaux of shape {mu} and weight {alpha}:")
for t in enumerate_sst(mu, alpha):
    print("   ", t)
print("Kostka number:", kostka(mu, alpha))

t = Tableau.from_entries([[1, 2], [2, 2]], 2)
print("\ntableau {1,2/2,2}: shape", t.shape, "weight", t.weight,
      "semistandard:", t.is_semistandard())
print("its count matrix (rows = entries, columns = tableau rows):", t.to_matrix())
