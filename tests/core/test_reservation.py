"""Tests for repro.core.reservation — R-SWMR reservation arithmetic."""

import math

import pytest

from repro.core.reservation import reservation_packet_bits, reservation_wavelengths


class TestReservationPacketBits:
    def test_paper_configuration(self):
        """16 routers, 2+2 packet types, 5 allocation levels, 1 L3."""
        bits = reservation_packet_bits(16)
        assert bits == math.ceil(math.log2(2 * 16 * 2 * 2 * 5 * 1))

    def test_monotone_in_routers(self):
        assert reservation_packet_bits(32) >= reservation_packet_bits(16)

    def test_monotone_in_allocation_levels(self):
        assert reservation_packet_bits(
            16, allocation_levels=9
        ) >= reservation_packet_bits(16, allocation_levels=5)

    @pytest.mark.parametrize("bad", [0, -1])
    def test_rejects_nonpositive_routers(self, bad):
        with pytest.raises(ValueError):
            reservation_packet_bits(bad)

    def test_rejects_nonpositive_types(self):
        with pytest.raises(ValueError):
            reservation_packet_bits(16, cpu_packet_types=0)


class TestReservationWavelengths:
    def test_single_cycle_broadcast(self):
        """At 16 Gb/s per WL and 2 GHz, one WL carries 8 bits/cycle."""
        assert reservation_wavelengths(10) == 2
        assert reservation_wavelengths(8) == 1

    def test_rejects_nonpositive_bits(self):
        with pytest.raises(ValueError):
            reservation_wavelengths(0)
