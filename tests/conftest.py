"""Hypothesis profiles.

Property tests scale their example counts from the loaded profile's
``max_examples``.  ``HYPOTHESIS_PROFILE=ci`` loads a profile with ten times
the default, so the oracles run deeper in CI than in a local run.
"""

import os

from hypothesis import settings

settings.register_profile("ci", max_examples=1000, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
