"""Splittable seeding: one root seed fans out to named sub-seeds.

Sub-seeds are derived by hashing (root, *names), so adding a new consumer
never perturbs the streams of existing ones.
"""

from __future__ import annotations

import hashlib


def derive_seed(root: int, *names) -> int:
    h = hashlib.sha256()
    h.update(str(int(root)).encode())
    for name in names:
        h.update(b"\x1f")
        h.update(str(name).encode())
    return int.from_bytes(h.digest()[:8], "little") >> 1
