"""Experiment harness: configuration, orchestration, artifacts, CLI."""
