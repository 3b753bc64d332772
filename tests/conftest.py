"""Hypothesis settings profiles.

``--hypothesis-profile=ci`` gives every property test that sets no
``max_examples`` of its own 2,000 examples; CI runs the JSON writer's
equality with ``json.dumps`` under it."""

from hypothesis import settings

settings.register_profile("ci", max_examples=2000)
