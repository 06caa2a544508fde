"""Main-memory substrate: the controllers behind the L3 crossbar."""

from .memory import MemoryController, MemoryStats

__all__ = [
    "MemoryController",
    "MemoryStats",
]
