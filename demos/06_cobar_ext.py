"""Cobar Ext of exterior Hopf algebras over small odd finite fields.

Run with: python3 demos/06_cobar_ext.py
"""

from imj.cobar import GF, ExteriorHopf, cobar_ext, symmetric_oracle

# A field order is checked to be an odd prime power q = p^e.  The cobar
# entries are shuffle signs in the prime field, so only p is used.
F9 = GF(9)
print(f"GF(9): characteristic p = {F9.p}, degree e = {F9.e}")

H = ExteriorHopf(2, 3)
print("\nCoproduct of tau_1 tau_2 in Lambda(tau_1, tau_2), Koszul signs:")
for left, right, sign in sorted(H.coproduct(frozenset({1, 2})),
                                key=lambda abc: (len(abc[0]),
                                                 sorted(abc[0]))):
    lname = "".join(f"t{i}" for i in sorted(left)) or "1"
    rname = "".join(f"t{i}" for i in sorted(right)) or "1"
    print(f"  {'+' if sign == 1 else '-'} {lname} (x) {rname}")

print("\nExt dimensions, cobar complex vs symmetric algebra oracle:")
for n in (1, 2, 3):
    got = cobar_ext(ExteriorHopf(n, 3), 4)
    oracle = symmetric_oracle(n, 4)
    print(f"  n={n}: match = {got == oracle}")
    if n == 2:
        for line in got.lines():
            print(f"    {line}")

print("\nThe same dimensions over GF(9) (ranks never move under scalar")
print(f"extension; the engine's spot check runs in characteristic {F9.p}):")
got9 = cobar_ext(ExteriorHopf(2, 9), 4)
print(f"  n=2 over GF(9): match = {got9 == symmetric_oracle(2, 4)}")
