"""Local CPU backend: numpy kernels."""

from repro.backends.cpu.backend import CpuBackend

__all__ = ["CpuBackend"]
