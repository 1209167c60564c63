"""Wildcards and tag-space constants of the message-passing runtime."""

from __future__ import annotations

__all__ = ["ANY_SOURCE", "ANY_TAG", "MAX_USER_TAG", "WORLD_CONTEXT"]

#: Wildcard source for ``recv``/``iprobe`` (matches any sender).
ANY_SOURCE: int = -1

#: Wildcard tag for ``recv``/``iprobe`` (matches any tag).
ANY_TAG: int = -1

#: User tags must lie in ``0..MAX_USER_TAG``; the runtime reserves the
#: negative tag space for collective operations.
MAX_USER_TAG: int = 2 ** 30

#: Context id of the WORLD communicator (root of the context tree).
WORLD_CONTEXT: tuple = (0,)
