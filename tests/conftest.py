"""Session-scoped Ray fixture: ONE ray.init per pytest session."""

import pytest


@pytest.fixture(scope="session")
def ray_session():
    import ray
    ray.init(address="local", num_cpus=4, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    try:
        from ray.data import DataContext
        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
    except Exception:
        pass
    yield
    ray.shutdown()


@pytest.fixture
def sort_tier(monkeypatch):
    """``with sort_tier():`` runs every reader of
    ``sortagg.BROADCAST_BYTES`` inside on its sort tier, since no table
    fits a negative budget: ``sortagg.key_join``,
    ``corpusstats.ngram_logprob``'s scorer and
    ``corpusstats.heavy_hitters``' nominee recount.
    ``sort_tier(False)`` leaves the tier to the measured size."""
    import contextlib

    from zhtml_ray.stages import sortagg

    @contextlib.contextmanager
    def forced(on: bool = True):
        with monkeypatch.context() as m:
            if on:
                m.setattr(sortagg, "BROADCAST_BYTES", -1)
            yield

    return forced
