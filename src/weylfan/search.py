"""The one tree walk behind the combinatorial enumerators: chains and
interval unions each supply only a children(node) function."""

from __future__ import annotations


def depth_first(root, children):
    """root, then every node below it, in preorder, lazily.

    children(node) is advanced one child at a time, and only after the
    previous child's subtree has been walked, so a generator may decide each
    child as it goes.  The stack holds iterators, not frames,
    so the depth is not bounded by the recursion limit.
    """
    stack = [iter((root,))]
    while stack:
        for node in stack[-1]:
            yield node
            stack.append(iter(children(node)))
            break
        else:
            stack.pop()
