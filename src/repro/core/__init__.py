"""Core package: machine configuration, the top-level machine model,
statistics, and the analytical area model used by the paper's technology
argument."""
