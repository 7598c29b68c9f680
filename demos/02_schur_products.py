"""
Products in the Schur algebra
=============================

The Schur algebra of degree r in rank n has a basis of symbols indexed by
n x n weight matrices of total r.  The product of two symbols is a sum over
linking 3-tensors, each weighted by a product of multinomial coefficients
(the structure constant), reduced mod p.
"""

from weylkit import (
    SchurElement,
    element_product,
    enumerate_theta,
    identity_element,
    structure_constant_int,
    xi_product,
)
from weylkit.shapes import diagonal_matrix, transpose_matrix

p = 3
w = ((1, 1), (0, 0))
pi = ((1, 0), (1, 0))

# One linking tensor, structure constant C(2;1,1) = 2:
theta = enumerate_theta(w, pi)[0]
print("structure constant of the unique linking tensor:", structure_constant_int(theta, p))
print("xi product over F_3:", xi_product(w, pi, 3))
print("xi product over F_2:", xi_product(w, pi, 2), "(the coefficient 2 dies)")
print()

# Diagonal symbols are orthogonal idempotents; their sum is the unit.
alpha = (1, 1)
print("xi_diag(1,1) . xi_w =", xi_product(diagonal_matrix(alpha), w, p))
e = identity_element(2, 2, p)
x = SchurElement.basis(w, p)
print("unit element:", e)
print("x . 1 == x:", element_product(x, e).terms == x.terms)
print()

# Transposing every index reverses products (an anti-automorphism).
lhs = xi_product(w, pi, p).transpose()
rhs = xi_product(transpose_matrix(pi), transpose_matrix(w), p)
print("transpose(xi_w xi_pi):", lhs)
print("xi_{pi^t} xi_{w^t}:   ", rhs)
