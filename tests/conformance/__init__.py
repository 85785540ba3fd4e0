"""One conformance oracle: every engine against the scalar pipeline.

:mod:`.scenarios` is the scenario space, :mod:`.engines` the registry
of engines (``scalar`` as reference, ``batch``, ``worker``, ``fleet``)
and :mod:`.compare` the one comparator.
"""
