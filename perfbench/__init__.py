"""The repository benchmark: workloads, harness, tracing (see README.md)."""
