"""Survey breadth against the 4n / 4n+4 predictions on random families.

For alternating diagrams with every crossing of ordinary type the
breadth of the bracket is pinned exactly: 4n+4 when the diagram lives
in a disk, 4n-4k otherwise, where k counts the crossings that touch
both boundary regions.  Everything else only gets the upper bound.

Run:  python demos/breadth_survey.py
"""

from annulink.analysis import profile
from annulink.generate import alternating_braid_closures, disk_alternating
from annulink.skein import bracket_gray

print("%-4s %-3s %-5s %-12s %-6s %-6s %-9s" % ("n", "k", "alt", "where", "B", "bound", "verdict"))
print("-" * 50)


def survey(diagrams):
    for d in diagrams:
        p = profile(d)
        if not p.connected:
            continue
        B = bracket_gray(d).breadth()
        k = p.k_fig3
        if p.in_disk:
            predicted = 4 * d.n + 4
        else:
            predicted = 4 * d.n - 4 * k
        exact = p.alternating and not p.k_fig2
        verdict = "= exact" if exact and B == predicted else "<= bound"
        where = "disk" if p.in_disk else "annulus"
        print("%-4d %-3d %-5s %-12s %-6d %-6d %-9s" % (d.n, k, "yes" if p.alternating else "no", where, B, predicted, verdict))


survey(disk_alternating(5, seed=71))
survey(alternating_braid_closures(8, seed=72, max_length=8))

print()
print("Rows marked '= exact' hit the predicted value on the nose; the")
print("others are only promised the upper bound, and k > 0 rows show the")
print("deficit 4k that boundary-touching crossings carve out of 4n.")
