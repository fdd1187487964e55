"""Holes, decompositions, and minimal semigroup certificates.

A hole of the k-th dilate is a lattice point of kP that is not a sum of k
lattice points of P.  The higashitani:3,h member has exactly h holes, all at
k = 2.  At each vertex v, minimal-length representations over the generators
P∩M - v certify semigroup membership; an infeasible pair certifies that the
polytope is not very ample.
"""

from polynorm import (
    full_report,
    generator_set,
    higashitani,
    reeve_like,
    sigma,
)
from polynorm.exactmath import sub
from polynorm.invariants import hole_count, iter_holes

# -- holes of the higashitani family ------------------------------------------

for h in (1, 2, 3):
    p = higashitani(3, h)
    r = full_report(p)
    print(f"{p.name}: d_P={r.d_P}  k_P={r.k_P}")
    for k in range(1, r.k_P + 1):
        count = hole_count(p, k)
        print(f"  k={k}: {f'{count} hole(s): {list(iter_holes(p, k))}' if count else 'normal'}")
print()

# -- decomposing a deep dilate point -------------------------------------------

# Above d_P = 2 every point of kP is a point of (k-1)P plus a lattice point
# of P, so peeling the least such unit twice takes u in 4P down to 2P.
p = higashitani(3, 2)
u = (2, 3, 5)
x, units = u, []
for level in (4, 3):
    w = min(w for w in p.lattice_points(1) if sub(x, w) in p.lattice_points(level - 1))
    x, units = sub(x, w), units + [w]
print(f"{u} in 4P splits as {x} (in 2P) + {' + '.join(map(str, units))}")
print()

# -- minimal certificates and a non-very-ample witness -------------------------

gs = generator_set(p, (0, 0, 0))
cert = sigma(gs, (1, 1, 3))
print(f"sigma((1,1,3), origin of {p.name}) = {cert.length} via parts {cert.parts}")

r = full_report(reeve_like())
print(f"\n{r.name}: very_ample={r.very_ample}")
print(f"non-saturation witness: {r.witnesses['non_saturation']}")
print("(every generator sum at the origin has even coordinate sum, so the")
print(" cone point (1,1,1) can never be reached: k_P is undefined)")
