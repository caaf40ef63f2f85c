"""Self-citation aware citation analytics.

Ingests citation corpora, classifies self-citations, and computes
adjusted impact metrics alongside the traditional ones, with cohort
tables, field calibration, synthetic corpus generation, and a CLI on
top. See the individual modules:

- ``corpus``: data model, JSONL / CSV bundle ingestion, validation
- ``identity``: self-citation counting
- ``metrics``: h-index, i10, SCR, SCAI, s-index, inflation
- ``calibration``: per-discipline parameter profiles
- ``cohort``: group summaries, gap statistics, funding scenario
- ``synth``: seeded synthetic corpora and citation compounding
- ``cli``: the ``selfcite`` command
"""

__version__ = "0.1.0"
