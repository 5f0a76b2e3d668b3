"""The repository benchmark: see bench/README.md and BENCHMARK.json."""
