"""perfbench: the repository's frozen benchmark (see README.md here)."""
