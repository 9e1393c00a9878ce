"""End-to-end and per-layer benchmark of the groupvar CLI; run ``perfbench/run.py``."""
