"""One-command benchmark of the zhtml_ray extraction job (see README.md)."""
