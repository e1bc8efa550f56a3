"""End-to-end benchmark with a per-layer traced split (see README.md)."""
