from hypothesis import settings

# No per-example deadline: on a loaded machine numpy calls can exceed
# hypothesis's 200 ms default and fail a correct property.
settings.register_profile("ifpca", deadline=None)
settings.load_profile("ifpca")
