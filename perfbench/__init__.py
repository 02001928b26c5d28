"""Benchmark of the V-LoRA serving simulator (entry point: ``run.py``)."""
