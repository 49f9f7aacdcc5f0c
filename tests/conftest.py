import pytest
from hypothesis import settings

from adlrec.taxonomy import default_category_table

# Property tests draw the same examples on every run and keep no example
# database, so a failure in one run is a failure in every run.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def table():
    return default_category_table()
