from hypothesis import Phase, settings

# Hypothesis's explain phase reruns a failing example many times to report
# which parts of it matter; on the closed-form properties that took minutes
# and about 1 GB, where the failure itself reports in seconds without it.
settings.register_profile("sgedr", phases=[p for p in Phase if p is not Phase.explain])
settings.load_profile("sgedr")
