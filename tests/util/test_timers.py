import pytest

from repro.util.timers import SimClock, WallTimer


class TestWallTimer:
    def test_measures_nonnegative(self):
        with WallTimer() as t:
            sum(range(100))
        assert t.elapsed >= 0.0

    def test_elapsed_zero_before_use(self):
        assert WallTimer().elapsed == 0.0


class TestSimClock:
    def test_advance(self):
        clock = SimClock()
        assert clock.advance(1.5) == 1.5
        assert clock.advance(0.5) == 2.0
        assert clock.now == 2.0

    def test_advance_negative_rejected(self):
        with pytest.raises(ValueError):
            SimClock().advance(-1)

    def test_advance_to_max_semantics(self):
        clock = SimClock(5.0)
        assert clock.advance_to(3.0) == 5.0  # no going back
        assert clock.advance_to(7.0) == 7.0

    def test_copy_is_independent(self):
        clock = SimClock(1.0)
        other = clock.copy()
        other.advance(1.0)
        assert clock.now == 1.0
        assert other.now == 2.0

    def test_advance_to_strict_rejects_backwards(self):
        clock = SimClock(5.0)
        with pytest.raises(ValueError, match="backwards"):
            clock.advance_to(3.0, strict=True)
        assert clock.advance_to(5.0, strict=True) == 5.0  # equal is fine

    def test_advance_to_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            SimClock().advance_to(float("nan"))

    def test_copy_preserves_subclass_fields(self):
        from dataclasses import dataclass

        @dataclass
        class StampedClock(SimClock):
            epoch: str = "t0"

        clock = StampedClock(2.0, epoch="boot")
        other = clock.copy()
        assert isinstance(other, StampedClock)
        assert (other.now, other.epoch) == (2.0, "boot")
