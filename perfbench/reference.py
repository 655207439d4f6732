"""The benchmark's fixed reference work: pure-Python integer, dict and sort
operations, about 0.2 s on a quiet core.

It never changes and does not import the package under test.  The benchmark
runs it between commands to measure how fast the shared host is at that
moment; run.py divides each command's time by the local reference time.
Run as ``python3 perfbench/reference.py``.
"""


def main():
    table = {}
    x = 0
    for i in range(600_000):
        x = (x * 31 + i) % 1_000_003
        table[x & 1023] = i
    return sorted(table.items())[0]


if __name__ == "__main__":
    main()
