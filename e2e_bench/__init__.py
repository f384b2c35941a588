"""End-to-end benchmark of the Graphalytics harness; see ``run.py``."""
