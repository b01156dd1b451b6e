"""THEMIS benchmark of record (see README.md)."""
