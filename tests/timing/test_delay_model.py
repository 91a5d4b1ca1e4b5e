"""Unit tests for the EQ-1 delay model with live loads and widths."""

import pytest

from repro.config import AnalysisConfig
from repro.timing.delay_model import DelayModel


class TestLoadCap:
    def test_fanout_pins_plus_wire(self, diamond, library):
        model = DelayModel(diamond, library)
        stem_load = model.load_cap("stem")
        inv_cap = library.get("INV_X1").input_cap
        assert stem_load == pytest.approx(2 * inv_cap + 2 * library.wire_cap_per_fanout)

    def test_primary_output_load(self, chain3, library):
        model = DelayModel(chain3, library)
        assert model.load_cap("out") == pytest.approx(library.primary_output_cap)

    def test_load_tracks_consumer_width(self, diamond, library):
        model = DelayModel(diamond, library)
        before = model.load_cap("stem")
        diamond.gate("left").width = 3.0
        after = model.load_cap("stem")
        inv_cap = library.get("INV_X1").input_cap
        assert after - before == pytest.approx(2.0 * inv_cap)

    def test_po_with_fanout_gets_both(self, library):
        from repro.netlist.circuit import Circuit

        inv = library.get("INV_X1")
        c = Circuit("po_fan")
        c.add_input("a")
        c.add_gate(inv, ["a"], "mid")
        c.add_gate(inv, ["mid"], "z")
        c.add_output("mid")  # PO that also feeds a gate
        c.add_output("z")
        model = DelayModel(c, library)
        expected = inv.input_cap + library.wire_cap_per_fanout + library.primary_output_cap
        assert model.load_cap("mid") == pytest.approx(expected)


class TestNominalDelay:
    def test_eq1(self, chain3, library):
        model = DelayModel(chain3, library)
        g = chain3.gate("n1")
        expected = g.cell.delay(g.width, model.load_cap("n1"))
        assert model.nominal_delay(g) == pytest.approx(expected)

    def test_upsizing_self_reduces_delay(self, chain3, library):
        model = DelayModel(chain3, library)
        g = chain3.gate("n2")
        before = model.nominal_delay(g)
        g.width = 4.0
        assert model.nominal_delay(g) < before

    def test_upsizing_consumer_slows_driver(self, chain3, library):
        model = DelayModel(chain3, library)
        driver = chain3.gate("n1")
        before = model.nominal_delay(driver)
        chain3.gate("n2").width = 4.0
        assert model.nominal_delay(driver) > before

    def test_sigma_fraction(self, chain3, library):
        cfg = AnalysisConfig(sigma_fraction=0.1)
        model = DelayModel(chain3, library, cfg)
        g = chain3.gate("n1")
        assert model.sigma(g) == pytest.approx(0.1 * model.nominal_delay(g))

    def test_nominal_delays_snapshot(self, c17, library):
        model = DelayModel(c17, library)
        delays = model.nominal_delays()
        assert set(delays) == {g.output for g in c17.gates()}
        assert all(d > 0.0 for d in delays.values())


class TestDelayPDF:
    def test_mean_near_nominal(self, chain3, library, fast_config):
        model = DelayModel(chain3, library, fast_config)
        g = chain3.gate("n1")
        pdf = model.delay_pdf(g)
        assert pdf.mean() == pytest.approx(model.nominal_delay(g), rel=0.02)

    def test_sigma_near_model(self, chain3, library):
        cfg = AnalysisConfig(dt=1.0)
        model = DelayModel(chain3, library, cfg)
        g = chain3.gate("n1")
        pdf = model.delay_pdf(g)
        # 3-sigma truncation shrinks std by 0.98658.
        assert pdf.std() == pytest.approx(
            model.sigma(g) * 0.98658, rel=0.02
        )

    def test_cache_hit_same_operating_point(self, chain3, library, fast_config):
        model = DelayModel(chain3, library, fast_config)
        g1 = chain3.gate("n1")
        pdf_a = model.delay_pdf(g1)
        pdf_b = model.delay_pdf(g1)
        assert pdf_a is pdf_b
        entries, bins = model.cache_info()
        assert entries >= 1 and bins >= 1

    def test_cache_invalidated_by_resize(self, chain3, library, fast_config):
        model = DelayModel(chain3, library, fast_config)
        g = chain3.gate("n2")
        before = model.delay_pdf(g)
        g.width = 2.0
        after = model.delay_pdf(g)
        assert after.mean() < before.mean()

    def test_clear_cache(self, chain3, library, fast_config):
        model = DelayModel(chain3, library, fast_config)
        model.delay_pdf(chain3.gate("n1"))
        model.clear_cache()
        assert model.cache_info() == (0, 0)


class TestAffectedGates:
    def test_gate_and_fanin_drivers(self, c17):
        model = DelayModel(c17)
        gate = c17.gate("22")  # NAND(10, 16)
        affected = {g.name for g in model.gates_affected_by_resize(gate)}
        assert affected == {"22", "10", "16"}

    def test_pi_driven_gate_only_itself(self, c17):
        model = DelayModel(c17)
        gate = c17.gate("10")  # NAND(1, 3): both primary inputs
        affected = {g.name for g in model.gates_affected_by_resize(gate)}
        assert affected == {"10"}

    def test_matches_paper_initialize_set(self, diamond):
        model = DelayModel(diamond)
        gate = diamond.gate("out")
        affected = {g.name for g in model.gates_affected_by_resize(gate)}
        assert affected == {"out", "left", "right"}

    def test_order_is_gate_then_drivers_in_pin_order(self, c17):
        """A fixed order, independent of object addresses: the gate,
        then its input-net drivers in pin order."""
        model = DelayModel(c17)
        for gate in c17.gates():
            expected = [gate.name] + [
                net for net in gate.inputs if c17.has_gate(net)
            ]
            for _ in range(2):
                got = [g.name for g in model.gates_affected_by_resize(gate)]
                assert got == expected
