"""Spans around calls into the engine's public functions, from outside it.

`Tracer.install()` replaces each traced function on the name where the
engine looks it up (module globals such as `quantmat.groebner.left_divide`,
class attributes such as `QRat.__add__`), and `uninstall()` puts the
originals back.  Each call records one span: name, start, end, parent span
and operation id, in flat arrays kept in memory until `write()`.  The
engine's code is not changed.
"""

from __future__ import annotations

import json
from array import array
from collections import defaultdict
from time import perf_counter

from quantmat import dimension, groebner, mq, pbw, qfield, straighten, textio

OP = "bench.op"  # root span of one operation; its self time is the glue
INSPECT = "bench.inspect"  # the tracer's own scans of returned values

# (span name, owner, attribute); the span name is "<layer>.<function>"
TARGETS = (
    ("qfield.add", qfield.QRat, "__add__"),
    ("qfield.sub", qfield.QRat, "__sub__"),
    ("qfield.mul", qfield.QRat, "__mul__"),
    ("qfield.div", qfield.QRat, "__truediv__"),
    ("qfield.inv", qfield.QRat, "inv"),
    ("qfield.pgcd", qfield, "pgcd"),
    ("pbw.poly_add", pbw, "poly_add"),
    ("straighten.mono_mul", straighten.CommutationSystem, "mono_mul"),
    ("straighten.poly_mul", straighten.CommutationSystem, "poly_mul"),
    ("groebner.buchberger", groebner, "buchberger"),
    ("groebner.left_spoly", groebner, "left_spoly"),
    ("groebner.left_divide", groebner, "left_divide"),
    ("dimension.hilbert_count", dimension, "hilbert_count"),
    ("dimension.gk_dimension", dimension, "gk_dimension"),
    ("textio.parse_poly", textio, "parse_poly"),
    ("textio.format_poly", textio, "format_poly"),
    ("mq.build_mq", mq, "build_mq"),
)

ARITH = ("qfield.add", "qfield.sub", "qfield.mul", "qfield.div", "qfield.inv")


def coefficient_size(polys) -> tuple[int, int]:
    """Largest q-degree and integer bit length among the coefficients."""
    qdeg = bits = 0
    for p in polys:
        for c, _ in p.terms:
            qdeg = max(qdeg, len(c.num) - 1, len(c.den) - 1)
            for x in c.num + c.den:
                x = abs(x)
                if isinstance(x, int):
                    bits = max(bits, x.bit_length())
                else:
                    bits = max(bits, x.numerator.bit_length(), x.denominator.bit_length())
    return qdeg, bits


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.stack = [-1]
        self.op_id = -1
        self.saved: list[tuple] = []
        # per-operation counters that are not span counts
        self.coef_qdeg = defaultdict(int)
        self.coef_bits = defaultdict(int)
        self.terms_max = defaultdict(int)
        self.chars_out = defaultdict(int)
        self.built = None  # the last system build_mq returned

    def _id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    def span(self, name: str, fn, *args):
        """Run fn(*args) inside a span of its own (used for the root span)."""
        idx = self._open(self._id(name))
        try:
            return fn(*args)
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        nid = self._id(name)
        inspect = self._inspector(name)
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if inspect is not None:
                tracer.span(INSPECT, inspect, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _inspector(self, name: str):
        def coefs(polys):
            qdeg, bits = coefficient_size(polys)
            o = self.op_id
            self.coef_qdeg[o] = max(self.coef_qdeg[o], qdeg)
            self.coef_bits[o] = max(self.coef_bits[o], bits)

        if name == "groebner.left_spoly":
            return lambda p: coefs([p])
        if name == "groebner.left_divide":
            return lambda qr: coefs(qr[0] + [qr[1]])
        if name == "pbw.poly_add":

            def terms(p):
                o = self.op_id
                self.terms_max[o] = max(self.terms_max[o], len(p.terms))

            return terms
        if name == "mq.build_mq":

            def built(system):
                self.built = system

            return built
        if name == "textio.format_poly":

            def chars(s):
                self.chars_out[self.op_id] += len(s)

            return chars
        return None

    def install(self) -> None:
        for name, owner, attr in TARGETS:
            fn = owner.__dict__[attr]
            self.saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self.saved):
            setattr(owner, attr, fn)
        self.saved.clear()

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> array:
        """Span duration minus the time its child spans cover."""
        n = len(self.start)
        child = array("d", bytes(8 * n))
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        return array("d", (end[i] - start[i] - child[i] for i in range(n)))

    def per_op(self):
        """Per operation: {span name: (calls, self seconds)} and traced duration."""
        selfs = self.self_times()
        table = defaultdict(lambda: defaultdict(lambda: [0, 0.0]))
        duration = {}
        op_nid = self.name_ids.get(OP)
        for i in range(len(selfs)):
            o = self.op[i]
            cell = table[o][self.names[self.name[i]]]
            cell[0] += 1
            cell[1] += selfs[i]
            if self.name[i] == op_nid:
                duration[o] = self.end[i] - self.start[i]
        return table, duration

    def write(self, path) -> None:
        """One JSON header line, then the raw arrays in header order."""
        fields = ("name", "start", "end", "parent", "op")
        header = {
            "names": self.names,
            "count": len(self.start),
            "fields": [[f, getattr(self, f).typecode, getattr(self, f).itemsize] for f in fields],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for f in fields:
                getattr(self, f).tofile(fh)
