"""Hypothesis prints every falsifying example it finds as a
``@reproduce_failure`` line, so a failing run can be replayed from its log;
every other setting keeps its default."""
from hypothesis import settings

settings.register_profile("twogrid", print_blob=True)
settings.load_profile("twogrid")
