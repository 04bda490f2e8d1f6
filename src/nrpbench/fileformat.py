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
Line breaks carry no meaning: the reader takes the tokens as one stream,
so a section may span lines or share one with the next.
"""

from __future__ import annotations

from itertools import islice

from .model import Instance, make_instance


class ParseError(Exception):
    def __init__(self, line: int, cause: str):
        self.line = line
        self.cause = cause
        super().__init__(f"line {line}: {cause}")


def read_instance(text: str) -> Instance:
    """Parse the canonical format; inverse of :func:`write_instance`.

    The text is one stream of (line number, token) pairs, read top to
    bottom through ``read``; a token left over at the end is trailing
    garbage.
    """
    lines = text.splitlines()
    tokens = ((no, tok) for no, line in enumerate(lines, 1) for tok in line.split())
    row = 0  # the line of the last token read

    def read(count: int, *what: str) -> list[int]:
        """The next ``count`` tokens as integers; token k is ``what[k % len(what)]``."""
        nonlocal row
        out: list[int] = []
        # no text holds more tokens than characters, and islice takes no stop past sys.maxsize
        for row, tok in islice(tokens, min(count, len(text))):
            try:
                out.append(int(tok))
            except ValueError:
                raise ParseError(row, f"expected {what[len(out) % len(what)]}, got {tok!r}") from None
        if len(out) < count:
            raise ParseError(len(lines) + 1,
                             f"unexpected end of input, expected {what[len(out) % len(what)]}")
        return out

    def count(noun: str, whose: str = "") -> int:
        (k,) = read(1, noun + whose)
        if k < 0:
            raise ParseError(row, f"negative {noun} {k}")
        return k

    level_sizes, costs = [], []
    for lv in range(1, count("level count") + 1):
        level_sizes.append(count("requirement count", f" of level {lv}"))
        costs += read(level_sizes[-1], f"cost in level {lv}")
    ends = read(2 * count("dependency count"), "dependency source", "dependency target")
    customers = []
    for i in range(1, count("customer count") + 1):
        (w,) = read(1, f"profit of customer {i}")
        customers.append((w, read(count("request count", f" of customer {i}"),
                                  f"request of customer {i}")))
    for row, tok in tokens:
        raise ParseError(row, f"trailing garbage: {tok!r}")
    return make_instance(costs, zip(ends[::2], ends[1::2]), customers, level_sizes)


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
