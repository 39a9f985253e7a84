"""The brute-force census.

Every structure on bounded sides is enumerated up to side-preserving
isomorphism (three states per cross pair, deduplicated by canonical
form), the exact homogeneity decider runs on each class, and the
homogeneous survivors are classified.  The audit then cross-checks the
outcome against the catalog: nothing unexpected may appear, and every
catalog structure in range must be found.

A homogeneous structure is line-symmetric (its columns are closed under
permuting the rows, and its rows under permuting the columns), so the
census generates and decides only the line-symmetric classes, a handful
per pair of sides, and counts the rest by Burnside's lemma.  Sides up to
6 take a second or two.  A range is refused at once when m!n! on its
largest sides exceeds the decider's automorphism cap (10^6), so 7x7 is
out.  Use the CLI for the desk-scale audit:

    twopartite verify --max-x 3 --max-y 3
    twopartite verify --max-x 4 --max-y 4    # under a second
    twopartite verify --max-x 6 --max-y 6    # about a second
"""

from collections import Counter

from twopartite import census_homogeneous, enumerate_all, verify_classification

print("isomorphism classes with both sides of size 2:",
      sum(1 for _ in enumerate_all(2, 2)))

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
