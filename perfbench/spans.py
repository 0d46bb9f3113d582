"""Spans and call counts around strainkit's layer boundaries, from outside.

`install` replaces each public layer function with a wrapper at every place
a caller looks the name up: module attributes read at call time
(`exactlin.sparse_rank`, `fieldio.load`), the globals of `complexes` that
`derive_elasticity` calls, the class attribute `LinOpMatrix.from_operator`,
and the names that `cli` and `suites` bound with `from`-imports.  Wrapping
only the defining module would miss the calls made through those imports.

Spans stay in memory as `[name, start, end, parent, op, size]` lists and are
written out by the worker when its ops are done.  Their clock is the
worker's CPU time, because the worker shares its CPU with the runner's speed
gauge (see run.py); the runner converts the totals to reference seconds.
`Poly3` arithmetic is counted, never timed: it runs millions of times, and a
timer per call would distort the very work it measures.
"""

from __future__ import annotations

from time import process_time

# Each span name gives a `<name>_s` metric (`cli` gives `cli.self_s`): the
# summed self time, i.e. span durations minus the time of their child spans.
TIMED = (
    "cli", "complexes.assemble", "complexes.schur", "complexes.verify",
    "exactlin.rank", "exactlin.solve", "exactlin.mul",
    "connection.reconstruct", "connection.normalize", "calculus.check",
    "riemannian.linearize", "riemannian.pointwise",
    "fieldio.load", "fieldio.save",
)
COUNTED = ("complexes.w_builds", "poly.mul_calls", "poly.add_calls",
           "poly.partial_calls", "poly.evaluate_calls")


class Recorder:
    """In-memory span list with a parent stack, plus named call counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, list[int]] = {name: [0] for name in COUNTED}
        self.op: str | None = None

    def timed(self, name: str, fn, size=None):
        """Wrap fn in a span; size(args, result) adds a number to the span."""
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = process_time()
                stack.pop()
            if size is not None:
                record[5] = size(args, result)
            return result

        return wrapper

    def counted(self, name: str, fn):
        cell = self.counts[name]

        def wrapper(*args):
            cell[0] += 1
            return fn(*args)

        return wrapper

    def dump(self) -> dict:
        return {"spans": self.spans,
                "counts": {name: cell[0] for name, cell in self.counts.items()}}


def _rank_size(args, result):
    cols, nrows = args[0], args[1]
    return [sum(len(col) for col in cols), max(nrows, len(cols))]


def _loaded_size(args, result):
    return args[0].tell()


def _saved_size(args, result):
    return args[1].tell()


def install(rec: Recorder) -> None:
    """Wrap every layer entry point of the imported strainkit package."""
    from strainkit import cli, complexes, exactlin, fieldio, suites
    from strainkit.complexes import LinOpMatrix
    from strainkit.poly import Poly3

    for attr, name, size in (("sparse_rank", "exactlin.rank", _rank_size),
                             ("solve_square", "exactlin.solve", None),
                             ("mul_cols", "exactlin.mul", None)):
        setattr(exactlin, attr, rec.timed(name, getattr(exactlin, attr), size))
    fieldio.load = rec.timed("fieldio.load", fieldio.load, _loaded_size)
    fieldio.save = rec.timed("fieldio.save", fieldio.save, _saved_size)

    from_operator = LinOpMatrix.__dict__["from_operator"].__func__
    LinOpMatrix.from_operator = classmethod(rec.timed(
        "complexes.assemble", from_operator,
        lambda args, result: len(result.cols)))

    timed_names = {
        "schur_reduce": "complexes.schur",
        "verify_complex": "complexes.verify",
        "saint_venant_reconstruct": "connection.reconstruct",
        "normalize_rigid": "connection.normalize",
        "linearized_einstein": "riemannian.linearize",
        "pointwise_curvature": "riemannian.pointwise",
    }
    for module in (complexes, cli, suites):
        for attr, name in timed_names.items():
            if attr in vars(module):
                setattr(module, attr, rec.timed(name, getattr(module, attr)))
        if "build_w_complex" in vars(module):
            module.build_w_complex = rec.counted("complexes.w_builds",
                                                 module.build_w_complex)
    # In the CLI, sym_grad and curl_curl only re-check an op's own output.
    cli.sym_grad = rec.timed("calculus.check", cli.sym_grad)
    cli.curl_curl = rec.timed("calculus.check", cli.curl_curl)

    for attrs, name in ((("__mul__", "__rmul__"), "poly.mul_calls"),
                        (("__add__", "__radd__"), "poly.add_calls"),
                        (("partial",), "poly.partial_calls"),
                        (("evaluate",), "poly.evaluate_calls")):
        for attr in attrs:
            setattr(Poly3, attr, rec.counted(name, getattr(Poly3, attr)))


def layer_totals(dump: dict) -> dict[str, float]:
    """Self times, call counts and sizes of one worker's spans."""
    spans = dump["spans"]
    child = [0.0] * len(spans)
    for name, start, end, parent, op, size in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = {f"{name}_s": 0.0 for name in TIMED}
    out.update({"complexes.assemble_calls": 0, "complexes.assemble_cols": 0,
                "exactlin.rank_calls": 0, "exactlin.rank_nnz": 0,
                "exactlin.rank_max_dim": 0, "exactlin.solve_calls": 0,
                "fieldio.bytes_in": 0, "fieldio.bytes_out": 0})
    for k, (name, start, end, parent, op, size) in enumerate(spans):
        out[f"{name}_s"] += end - start - child[k]
        if name == "complexes.assemble":
            out["complexes.assemble_calls"] += 1
            out["complexes.assemble_cols"] += size
        elif name == "exactlin.rank":
            out["exactlin.rank_calls"] += 1
            out["exactlin.rank_nnz"] += size[0]
            out["exactlin.rank_max_dim"] = max(out["exactlin.rank_max_dim"], size[1])
        elif name == "exactlin.solve":
            out["exactlin.solve_calls"] += 1
        elif name == "fieldio.load":
            out["fieldio.bytes_in"] += size
        elif name == "fieldio.save":
            out["fieldio.bytes_out"] += size
    out.update(dump["counts"])
    out["cli.self_s"] = out.pop("cli_s")
    return out
