"""End-to-end benchmark (see README.md); run.py is the entry point."""
