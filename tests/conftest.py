from hypothesis import settings

settings.register_profile("suite", derandomize=True, max_examples=60, deadline=None)
# the JSON contract's deep run: pytest --hypothesis-profile deep -k json_render
settings.register_profile("deep", derandomize=True, max_examples=2000, deadline=None)
settings.load_profile("suite")
