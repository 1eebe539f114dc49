"""Which stochgame functions the traced run wraps, and the per-layer metrics.

Each entry patches the name a caller looks up at call time (the module
attribute its `from .x import f` created), so every route into a layer
is spanned once.  Span names are the per-layer metric prefixes.
"""

from __future__ import annotations

from spans import Tracer, layer_totals

SPAN_NAMES = (
    "cli", "gamefile.parse", "solver", "checks",
    "pencil.build", "pencil.assembly", "pencil.matrix", "pencil.kronecker",
    "pencil.payoff_det", "ratlinalg.det", "matrixgame.simplex",
    "oracle.value_iteration", "oracle.shapley", "absorbing.kohlberg",
)


def _simplex_call(tracer: Tracer, args, kwargs) -> None:
    rows = args[0].rows
    tracer.count("matrixgame.simplex.entries", len(rows) * len(rows[0]))
    tracer.high("matrixgame.simplex.max_entry_bits", max(
        max(x.numerator.bit_length(), x.denominator.bit_length()) for row in rows for x in row
    ))


def _pencil_built(tracer: Tracer, pencil) -> None:
    tracer.count("pencil.build.entries", pencil.n_rows * pencil.n_cols)


def _solver_result(tracer: Tracer, result) -> None:
    tracer.count("solver.probes", result.iterations)
    tracer.count("solver.exact_roots", int(result.radius == 0))
    for ev in result.evidence or ():
        tracer.high("solver.anchor_exponent_max", ev.anchor_exponent)
        tracer.count("solver.rungs", ev.ladder_depth - ev.anchor_exponent + 1)


def install(tracer: Tracer, mods: dict) -> None:
    cli, solver, pencil, checks = mods["cli"], mods["solver"], mods["pencil"], mods["checks"]
    oracle, absorbing = mods["oracle"], mods["absorbing"]
    simplex = dict(name="matrixgame.simplex", on_call=_simplex_call)
    build = dict(name="pencil.build", on_result=_pencil_built)
    table = [
        (cli, "parse_game", dict(name="gamefile.parse")),
        (cli, "limit_value", dict(name="solver", on_result=_solver_result)),
        (cli, "run_invariant_checks", dict(name="checks")),
        (solver, "build_pencil", build),
        (solver, "solve_matrix_game", simplex),
        (pencil, "build_pencil", build),
        (pencil, "det", dict(name="ratlinalg.det")),
        (pencil.GamePencil, "matrix_at", dict(name="pencil.assembly")),
        (checks, "build_pencil", build),
        (checks, "payoff_denominator", dict(name="pencil.payoff_det")),
        (checks, "pencil_matrix", dict(name="pencil.matrix")),
        (checks, "pencil_matrix_kronecker", dict(name="pencil.kronecker")),
        (checks, "solve_matrix_game", simplex),
        (checks, "value_iteration", dict(name="oracle.value_iteration")),
        (checks, "shapley_operator", dict(name="oracle.shapley")),
        (checks, "verify_kohlberg_identity", dict(name="absorbing.kohlberg")),
        (checks, "det", dict(name="ratlinalg.det")),
        (oracle, "shapley_operator", dict(name="oracle.shapley")),
        (oracle, "solve_matrix_game", simplex),
        (absorbing, "pencil_matrix", dict(name="pencil.matrix")),
        (absorbing, "solve_matrix_game", simplex),
    ]
    for owner, attr, spec in table:
        tracer.patch(owner, attr, **spec)


PER_LAYER = (
    [(f"{n}.calls", "count") for n in SPAN_NAMES]
    + [(f"{n}.self_s", "s") for n in SPAN_NAMES]
    + [
        ("pencil.build.entries", "count"),
        ("matrixgame.simplex.entries", "count"),
        ("matrixgame.simplex.max_entry_bits", "bits"),
        ("solver.probes", "count"),
        ("solver.probes_per_solve", "count"),
        ("solver.exact_root_frac", "ratio"),
        ("solver.anchor_exponent_max", "count"),
        ("solver.rungs", "count"),
        ("trace.solve_s", "s"),
        ("trace.overhead_frac", "ratio"),
    ]
)


def per_layer_metrics(tracer: Tracer, untraced_s: float) -> dict[str, float]:
    """Totals over the traced pass; self times in s, counts exact."""
    totals = layer_totals(tracer.spans)
    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        calls, ns = totals.get(name, (0, 0))
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = ns / 1e9
    roots = [sp for sp in tracer.spans if sp.parent is None]
    traced_ns = sum(sp.end - sp.start for sp in roots)
    self_ns = sum(ns for _, ns in totals.values())
    if self_ns != traced_ns:
        raise RuntimeError(f"layer self times {self_ns} ns != traced solve time {traced_ns} ns")
    solver_calls = out["solver.calls"]
    c, m = tracer.counters, tracer.maxima
    out.update({
        "pencil.build.entries": c.get("pencil.build.entries", 0),
        "matrixgame.simplex.entries": c.get("matrixgame.simplex.entries", 0),
        "matrixgame.simplex.max_entry_bits": m.get("matrixgame.simplex.max_entry_bits", 0),
        "solver.probes": c.get("solver.probes", 0),
        "solver.probes_per_solve": c.get("solver.probes", 0) / solver_calls if solver_calls else 0.0,
        "solver.exact_root_frac": c.get("solver.exact_roots", 0) / solver_calls if solver_calls else 0.0,
        "solver.anchor_exponent_max": m.get("solver.anchor_exponent_max", 0),
        "solver.rungs": c.get("solver.rungs", 0),
        "trace.solve_s": traced_ns / 1e9,
        "trace.overhead_frac": traced_ns / 1e9 / untraced_s - 1,
    })
    return out
