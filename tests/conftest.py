import pytest


class NullScheme:
    """Accepts nothing: a scheme with balance zero, the negative control for
    the balance measurements."""

    name = "null"

    def __init__(self, matroid):
        self.matroid = matroid
        self.coin_probability = 0.0

    def coins(self, elements, rng):
        return {e: False for e in elements}

    def run(self, active_order, coins, trace=None):
        return ()

    def selection_probability_given_active(self, element, actives, coins, adversary) -> float:
        return 0.0

    def sweep(self, actives, coins, adversary, forced, trace=None):
        return (), {e: 0.0 for e in forced}


@pytest.fixture
def null_scheme():
    return NullScheme
