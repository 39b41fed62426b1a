"""Benchmark harness for the onofri package: workloads, tracing and the runner."""
