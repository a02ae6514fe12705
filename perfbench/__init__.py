"""Benchmark of the federated analytics platform; see README.md."""
