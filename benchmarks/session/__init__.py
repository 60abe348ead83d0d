"""Engine-session benchmark: whole ResolutionEngine sessions, timed from outside.

See ``README.md`` in this directory.  ``run.py`` is the entry point.
"""
