"""
Degree-raising periodicity of Ext dimensions, and where it is sharp
===================================================================

Adding p^d to the first parts of both partitions leaves every Ext
dimension unchanged once p^d clears the right bound.  The engine verifies
this three ways:

* per-degree dimension comparison on both sides,
* an entrywise identification of the two Hom complexes under the canonical
  basis bijections (the strongest form),
* independent Hom comparisons under an improved bound available in
  degree 0.

It also reproduces the boundary cases: parameter choices just outside the
hypotheses where the dimensions genuinely jump.
"""

from weylkit import (
    hook_ext_crosscheck,
    verify_hom_bound,
    verify_periodicity,
)

# A hypothesis-satisfying case: all degrees agree, and the two
# complexes are literally the same matrices after relabelling bases (the
# Weyl-target check compares them entrywise under "isomorphism").
rep = verify_periodicity((2, 1), (2, 1), 2, 1, "weyl")
print("(2,1) -> (2,1), p=2, d=1:", rep["verdict"], rep["ext_dims"], "=", rep["shifted_ext_dims"])
iso = rep["isomorphism"]
print("complex isomorphism, entrywise:", iso["all_equal"], "over", iso["degrees_compared"], "degrees")
print()

# The simple-module target works the same way under its own hypothesis.
rep = verify_periodicity((1, 1), (2, 0), 2, 1, "simple")
print("(1,1) -> (2,0) simple target:", rep["verdict"], rep["ext_dims"], "=", rep["shifted_ext_dims"])
print()

# Sharpness in degree zero: at p = 3 the pair (8,3) -> (11) sits exactly on
# the improved Hom bound, and the dimension drops from 1 to 0 after the
# shift.  Same story for (1,1,1,1) -> (2,2), which violates the second
# hypothesis instead.
for lam, mu in [((8, 3), (11, 0)), ((1, 1, 1, 1), (2, 2, 0, 0))]:
    rep = verify_hom_bound(lam, mu, 3, 1)
    print(f"{lam} -> {mu}, p=3, d=1:", rep["verdict"],
          rep["ext_dims"], "vs", rep["shifted_ext_dims"],
          "| hypotheses:", {k: v for k, v in rep["hypotheses"].items() if k != "all_hold"})
print()

# A boundary found by this engine: the per-degree hook bound p^d > i fails
# on its own edge p^d = i + 1.  Both resolutions agree on the dimensions,
# so this is the mathematics, not an artefact: Ext^1 drops from 1 to 0.
rep = hook_ext_crosscheck(2, 2, (4, 0, 0, 0), 2, shift_ds=(1, 2))
for check in rep["shifted_checks"]:
    print(f"hook (2,1,1) -> (4), p=2, d={check['d']}:",
          check["ext_dims"], "vs", check["shifted_ext_dims"],
          "| stated bound holds:", check["stated_bound_holds"],
          "| supported bound holds:", check["supported_bound_holds"])
