"""Tests of the repository tooling under ``tools/``."""
