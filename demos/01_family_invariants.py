"""Walk through the non-normal very ample family bruns:s.

For every s >= 4 the family member has 8 vertices, 8 lattice points, and
normalized volume s + 6, yet fails to be (s-2)-normal: the point
(1, 1, s-1) of the (s-2)-nd dilate is not a sum of s-2 lattice points.
The refined bound is sharp at s = 4.
"""

from polynorm import bruns_gubeladze, full_report
from polynorm.invariants import hole_count, iter_holes

for s in (4, 5, 6, 7):
    p = bruns_gubeladze(s)
    r = full_report(p)
    print(f"--- {p.name} ---")
    print(f"vertices={r.num_vertices}  lattice points={r.num_lattice_points}  "
          f"Vol={r.volume_normalized}  deg={r.degree}")
    print(f"d_P={r.d_P}  nu_P={r.nu_P}  m_P={r.m_P}  k_P={r.k_P}  "
          f"regularity={r.regularity}")
    print(f"very ample={r.very_ample}  normal={r.normal}")
    print(f"bounds: theorem={r.bounds['theorem']}  refined={r.bounds['refined']}  "
          f"(k_P = {r.k_P}, so the refined bound is "
          f"{'sharp' if r.bounds['refined'] == r.k_P else 'not sharp'})")

    # the failure of (s-2)-normality, witnessed explicitly
    k = s - 2
    print(f"({k})-normal? {hole_count(p, k) == 0}; holes: {list(iter_holes(p, k))}")
    print()

print("The theorem bound (m_P - d_P)*n + 1 equals k_P exactly when the")
print("polytope is normal; on this family it stays strictly above, while")
print("the refined variant (m_P - d_P - 1)*n + nu_P + 1 touches k_P at s=4.")
