"""Walk through one full propagation step: the consecutive prospective
triple (113, 121, 127) at level 4 carried into all eleven subsets of the
level-5 window.

Run:  python3 demos/01_propagation_table.py
"""

from polignac.census import classify_propagation, table1
from polignac.wheel import mhat

TRIPLE = (113, 121, 127)
LEVEL = 4

print("Each member of the triple survives into every residue class m of")
print("the next level except one, its disallowed index m^:\n")
for p in TRIPLE:
    d = mhat(p, LEVEL + 1)
    print(f"  mhat({p}) = {d.value}   (alpha = {d.alpha})")

table = table1()
print("\nFull table — bracketed entries are composite, m^ marks the")
print("disallowed residue of that row:\n")
print(table.render_text())

print("\nReading the gap rows: g = 8 and g' = 6 survive wherever the")
print("relevant endpoints are allowed; where the middle member drops out")
print("the two gaps merge into g + g' = 14.  Residue by residue:\n")
for m in range(len(table.rows[0])):
    outcome = classify_propagation(TRIPLE, LEVEL, m)
    roles = "+".join(r.name for r in outcome.roles)
    merged = f", merged gap {outcome.merged_gap}" if outcome.merged_gap else ""
    print(f"  m={m:2d}  {roles:<16} gaps {outcome.gaps}{merged}")
