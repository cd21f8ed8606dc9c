"""Retired numba tier; kept because ``perfbench/child.py`` still probes it."""


def get_kernel(name: str):
    return None
