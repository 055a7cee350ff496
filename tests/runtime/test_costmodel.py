"""Cost model unit tests."""

import pytest

from repro.lang import Opcode, compile_source
from repro.runtime import run_program
from repro.runtime.costmodel import OPCODE_COST, overhead_percent


class TestCostModel:
    def test_every_opcode_priced(self):
        assert set(OPCODE_COST) == set(Opcode)
        assert all(cost >= 1 for cost in OPCODE_COST.values())

    def test_memory_ops_cost_more_than_alu(self):
        assert OPCODE_COST[Opcode.LOAD] > OPCODE_COST[Opcode.BINOP]
        assert OPCODE_COST[Opcode.CALL] > OPCODE_COST[Opcode.JMP]

    def test_overhead_percent(self):
        assert overhead_percent(100, 10) == pytest.approx(10.0)
        assert overhead_percent(0, 50) == 0.0
        assert overhead_percent(200, 0) == 0.0


class TestIntegration:
    def test_run_counts_match_cost(self):
        module = compile_source("""
            int main() {
                int a = 1;
                int b = a + 2;
                return b;
            }
        """)
        out = run_program(module)
        assert out.base_cost > 0
        assert out.steps == module.num_instructions() or out.steps > 0

    def test_cost_deterministic(self):
        module = compile_source("""
            int main(int n) {
                int s = 0;
                int i;
                for (i = 0; i < n; i++) { s = s + i * i; }
                return s;
            }
        """)
        a = run_program(module, args=[25])
        b = run_program(module, args=[25])
        assert a.base_cost == b.base_cost
