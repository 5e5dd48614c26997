"""Repo-specific static analysis: lint rules, shape contracts, typing gate.

Three layers keep the pipeline's unwritten conventions written down and
machine-checked:

* :mod:`repro.analysis.rules` — REP001–REP007 and REP010 AST lint
  rules encoding this repo's invariants (seeded RNG, typed error
  accounting, no mutable defaults, tracer-owned clocks, tolerance
  float compares, picklable pool tasks, honest ``__all__``, canonical
  tracer stage names).
* :mod:`repro.analysis.contracts` — the :func:`contract` decorator:
  runtime ndarray shape/dtype validation, enabled by
  ``REPRO_CONTRACTS=1`` and compiled to a no-op otherwise; plus
  :mod:`repro.analysis.contracts_static` cross-checks (REP008/REP009).
* :mod:`repro.analysis.typegate` — the strict typing gate (mypy when
  available, AST annotation-coverage fallback) with a checked-in
  baseline so only *new* violations fail CI.

Run everything with ``python -m repro.analysis --strict src/repro``.
"""

__all__: list[str] = []
