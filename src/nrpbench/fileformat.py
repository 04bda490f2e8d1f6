"""Canonical whitespace-separated instance format.

Layout (1-based requirement ids, assigned level by level in file order)::

    L                       number of levels
    k_1                     requirement count of level 1
    c c c ...               k_1 costs
    ...                     (repeated per level)
    D                       dependency count
    p q                     D lines, p must precede q
    M                       customer count
    w s r_1 ... r_s         M lines: profit, request count, requested ids

Parsing is strict: wrong counts, non-integer tokens, truncation, and
trailing garbage all raise :class:`ParseError` with the offending line.
"""

from __future__ import annotations

from .model import Instance, make_instance


class ParseError(Exception):
    def __init__(self, line: int, cause: str):
        self.line = line
        self.cause = cause
        super().__init__(f"line {line}: {cause}")


class _Tokens:
    """Line-oriented integer scanner that remembers its position."""

    def __init__(self, text: str):
        self._lines = text.splitlines()
        self._row = 0
        self._buf: list[str] = []

    @property
    def line_no(self) -> int:
        return self._row

    def next_int(self, what: str) -> int:
        while not self._buf:
            if self._row >= len(self._lines):
                raise ParseError(self._row + 1, f"unexpected end of input, expected {what}")
            self._buf = self._lines[self._row].split()
            self._row += 1
        tok = self._buf.pop(0)
        try:
            return int(tok)
        except ValueError:
            raise ParseError(self._row, f"expected {what}, got {tok!r}") from None

    def expect_end(self) -> None:
        if self._buf:
            raise ParseError(self._row, f"trailing garbage: {' '.join(self._buf)!r}")
        row = self._row
        while row < len(self._lines):
            if self._lines[row].split():
                raise ParseError(row + 1, f"trailing garbage: {self._lines[row].strip()!r}")
            row += 1


def read_instance(text: str) -> Instance:
    """Parse the canonical format; inverse of :func:`write_instance`."""
    tk = _Tokens(text)
    n_levels = tk.next_int("level count")
    if n_levels < 0:
        raise ParseError(tk.line_no, f"negative level count {n_levels}")
    level_sizes = []
    costs: list[int] = []
    for lv in range(n_levels):
        k = tk.next_int(f"requirement count of level {lv + 1}")
        if k < 0:
            raise ParseError(tk.line_no, f"negative requirement count {k}")
        level_sizes.append(k)
        costs.extend(tk.next_int(f"cost in level {lv + 1}") for _ in range(k))
    n_deps = tk.next_int("dependency count")
    if n_deps < 0:
        raise ParseError(tk.line_no, f"negative dependency count {n_deps}")
    edges = []
    for _ in range(n_deps):
        p = tk.next_int("dependency source")
        q = tk.next_int("dependency target")
        edges.append((p, q))
    n_cust = tk.next_int("customer count")
    if n_cust < 0:
        raise ParseError(tk.line_no, f"negative customer count {n_cust}")
    customers = []
    for i in range(n_cust):
        w = tk.next_int(f"profit of customer {i + 1}")
        s = tk.next_int(f"request count of customer {i + 1}")
        if s < 0:
            raise ParseError(tk.line_no, f"negative request count {s}")
        reqs = tuple(tk.next_int(f"request of customer {i + 1}") for _ in range(s))
        customers.append((w, reqs))
    tk.expect_end()
    return make_instance(costs, edges, customers, level_sizes)


def write_instance(instance: Instance) -> str:
    """Serialize to the canonical format; customers and edges keep their order."""
    out = [str(len(instance.level_sizes))]
    pos = 0
    for k in instance.level_sizes:
        out.append(str(k))
        out.append(" ".join(map(str, instance._cost[pos:pos + k])))
        pos += k
    out.append(str(len(instance._edges)))
    out.extend(f"{p} {q}" for p, q in instance._edges.tolist())
    out.append(str(instance.n_customers))
    for w, reqs in zip(instance.profit_vector.tolist(), instance._requests):
        out.append(" ".join(map(str, (w, len(reqs), *reqs))))
    return "\n".join(out) + "\n"


def read_instance_file(path) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return read_instance(fh.read())


def write_instance_file(instance: Instance, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(write_instance(instance))
