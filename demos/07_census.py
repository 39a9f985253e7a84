"""The classification census.

Each cross pair takes one of three states, so the structures on sides of
size m and n fall into the side-preserving isomorphism classes of the
3^(m*n) state vectors; Burnside's lemma counts them without listing
them.  A homogeneous structure is line-symmetric (its columns are closed
under permuting the rows, and its rows under permuting the columns), so
the census generates and decides only the line-symmetric classes, a
handful per pair of sides, runs the exact homogeneity decider on each,
and classifies the homogeneous survivors.  The audit then cross-checks
the outcome against the catalog: nothing unexpected may appear, and
every catalog structure in range must be found.

Sides up to 6 take a second or two.  A range is refused at once when
m!n! on its largest sides exceeds the decider's automorphism cap
(10^6), so 7x7 is out.  Use the CLI for the desk-scale audit:

    twopartite verify --max-x 3 --max-y 3
    twopartite verify --max-x 4 --max-y 4    # under a second
    twopartite verify --max-x 6 --max-y 6    # about a second
"""

from collections import Counter

from twopartite import census_homogeneous, verify_classification
from twopartite.census import _burnside_count

print("isomorphism classes with both sides of size 2:", _burnside_count(2, 2))

entries = census_homogeneous(2, 2)
print(f"homogeneous classes with sides up to 2: {len(entries)}")
print()
print("by classification:")
counts = Counter(
    (e.label.case.value, e.label.subkind.value if e.label.subkind else "",
     e.label.pair_size or "")
    for e in entries)
for (case, subkind, size), count in sorted(counts.items()):
    detail = " ".join(str(p) for p in (subkind, size) if p != "")
    print(f"  {count:2}  {case} {detail}")

print()
report = verify_classification(2, 2)
print(f"audit up to 2x2: ok={report.ok}  classes={report.classes_scanned}  "
      f"homogeneous={report.homogeneous_classes}  "
      f"discrepancies={len(report.discrepancies)}")
