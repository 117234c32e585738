"""Benchmark of the avoidance CLI: workloads, checks, tracing and the runner."""
