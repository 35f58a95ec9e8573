import hypothesis

hypothesis.settings.register_profile(
    "polyvote",
    max_examples=50,
    deadline=None,
    derandomize=True,
)
# fresh examples on every run, more of them: select it with
# `pytest --hypothesis-profile=polyvote-fresh`
hypothesis.settings.register_profile(
    "polyvote-fresh",
    max_examples=300,
    deadline=None,
    derandomize=False,
)
hypothesis.settings.load_profile("polyvote")
