"""The filtration-by-powers spectral sequence, from page 2 to the abutment.

Run with: python3 demos/03_spectral_sequence.py
"""

from imj.cli import main
from imj.grpcoh import abutment
from imj.ssq import abutment_check, run

p, N = 3, 6
window = (0, 36)

result = run(p, window, N)
print(f"p={p}, N={N}, internal degrees {window[0]}..{window[1]}")
for r in range(2, result.last_page + 1):
    print(f"  page {r}: {len(result.page(r))} classes")
print()

print("Differentials found by the generic engine (graded pieces, Smith")
print("normal form, page recursion - no closed form anywhere inside):")
for rec in result.differentials:
    print(f"  d_{rec.r}: {rec.source.name} -> {rec.target.name}")
print()

survivors = sorted(cl.name for cl in result.e_infinity)
print(f"E_infinity classes: {', '.join(survivors)}\n")

# Cross-check: surviving columns must assemble to the directly computed
# cohomology, extensions resolved along b-multiplication.
check = abutment_check(result, abutment(p, window, N))
print(f"abutment check passes: {check.ok}")
for line in check.lines():
    print(" ", line)
print()

print("The same run, drawn (one glyph per class, '\\' marks a differential):")
main(["chart", "-p", str(p), "-N", str(N), "--stem-min", "-1",
      "--stem-max", "12"])
