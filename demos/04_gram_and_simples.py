"""
Contravariant forms, radicals, and weight multiplicities of simples
===================================================================

Each weight slice of a Weyl module carries the contravariant Gram matrix
(normalised so the highest vector pairs to 1).  Its radical cuts out the
radical of the module, and the quotient dimensions are the weight
multiplicities of the simple head: the p-Kostka numbers.
"""

from weylkit import gram_data, simple_weight_dims
from weylkit.shapes import enumerate_partitions

# The divided square over F_2: the middle weight (1,1) pairs to 2 = 0, so
# the simple head loses that weight (it is a Frobenius twist of the natural
# module).
for p in (2, 3):
    data = gram_data((2, 0), (1, 1), p)
    print(f"p={p}: Gram at weight (1,1) of shape (2):", data.gram.tolist(),
          "radical dim", data.radical_dim)
print("weight dims of the simple head of shape (2) over F_2:", simple_weight_dims((2, 0), 2))
print()

# Full weight tables for the shapes of degree 4 in rank 2, over F_2 and F_5.
for p in (2, 5):
    print(f"simple weight multiplicities over F_{p}:")
    for mu in enumerate_partitions(2, 4):
        dims = simple_weight_dims(mu, p)
        total = sum(dims.values())
        print(f"  shape {mu}: {dims}  (dim {total})")
    print()

# For p > r the algebra is semisimple, so Weyl modules are simple and every
# Gram matrix is nonsingular; compare the p=5 table with ordinary Kostka
# numbers.
