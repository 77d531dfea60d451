"""Regenerate the frozen reference-table JSON from the transcription source.

The factored expression strings in closurelab.data.tables_source, written in
the grammar of closurelab.exactalg.parse_poly, are the single source of truth;
this script re-expands them with exact polynomial arithmetic and rewrites
src/closurelab/data/appendix_b.json (idempotent).
"""

from closurelab.data.build import main

if __name__ == "__main__":
    main()
