import hypothesis

hypothesis.settings.register_profile(
    "polyvote",
    max_examples=50,
    deadline=None,
    derandomize=True,
)
# fresh examples on every run, more of them: select it with
# `pytest --hypothesis-profile=polyvote-fresh`.  It reports a failing
# example as drawn, unshrunk: shrinking one that inverts sympy matrices
# or enumerates large polytopes can run for minutes.
hypothesis.settings.register_profile(
    "polyvote-fresh",
    max_examples=300,
    deadline=None,
    derandomize=False,
    phases=[p for p in hypothesis.Phase if p is not hypothesis.Phase.shrink],
)
hypothesis.settings.load_profile("polyvote")
