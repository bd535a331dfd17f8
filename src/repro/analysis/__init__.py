"""Analysis-result reporting, graphs, and the benchmark measurement layer."""
