"""``python -m benchmarks.session``: the same entry point as ``run.py``."""

from .run import main

raise SystemExit(main())
