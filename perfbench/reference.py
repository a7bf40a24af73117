"""A fixed reference task that uses no cellmonoid code: the yardstick for host speed.

    python3 perfbench/reference.py

Rational arithmetic, a dict of about 40,000 tuple keys and small
list-of-lists rewriting, like the inner loops of the workloads, in about
0.2 s and 25 MB on a quiet core. It prints the checksum it computed, so the
caller can check that the work was done. run.py runs it as a child process
right before every workload child and scales the child's times by it.
"""

from __future__ import annotations

from fractions import Fraction


def main() -> int:
    table = {}
    acc = Fraction(0)
    for i in range(1, 40001):
        key = (i * 7919 % 40009, i % 1013)
        acc += Fraction(i % 97 + 1, i % 89 + 1)
        table[key] = table.get(key, 0) + acc.numerator % 1009
    rows = [[(i * j + 3) % 11 for j in range(60)] for i in range(60)]
    total = sum(table.values())
    for _ in range(20):
        rows = [[(a + b) % 11 for a, b in zip(r, rows[k - 1])] for k, r in enumerate(rows)]
        total += sum(map(sum, rows))
    print(total)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
