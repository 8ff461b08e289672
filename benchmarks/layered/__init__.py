"""The repo's reference benchmark (see README.md in this directory)."""
