"""PT-trace-based coverage reporting.

A natural by-product of owning an Intel-PT-style decoder: reconstructing
which statements executed gives statement/branch coverage with near-zero
runtime instrumentation — one of the production use cases Intel markets PT
for, and a useful debugging companion to failure sketches ("did the failing
run even reach this function?").

:func:`coverage_from_traces` folds any number of decoded traces into a
:class:`CoverageReport`; :meth:`CoverageReport.format` renders an annotated
per-line listing of the MiniC source.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Set, Tuple

from ..lang.ir import Module, Opcode


@dataclass
class FunctionCoverage:
    """Per-function statement/branch coverage counters."""
    name: str
    total_statements: int = 0
    covered_statements: int = 0
    total_branches: int = 0
    covered_branches: int = 0      # both arms observed
    half_covered_branches: int = 0  # exactly one arm observed

    @property
    def statement_ratio(self) -> float:
        if self.total_statements == 0:
            return 1.0
        return self.covered_statements / self.total_statements


@dataclass
class CoverageReport:
    """Coverage aggregated from decoded PT traces of a module."""
    module: Module
    executed_uids: Set[int] = field(default_factory=set)
    branch_arms: Dict[int, Set[str]] = field(default_factory=dict)

    # -- derived ----------------------------------------------------------

    def covered_lines(self) -> Set[Tuple[str, int]]:
        out = set()
        for uid in self.executed_uids:
            ins = self.module.instr(uid)
            if ins.line > 0:
                out.add((ins.func_name, ins.line))
        return out

    def function_coverage(self) -> List[FunctionCoverage]:
        rows = []
        covered = self.covered_lines()
        for func in self.module.functions.values():
            row = FunctionCoverage(name=func.name)
            lines = {ins.line for ins in func.instructions()
                     if ins.line > 0 and ins.line != func.line}
            row.total_statements = len(lines)
            row.covered_statements = sum(
                1 for line in lines if (func.name, line) in covered)
            for ins in func.instructions():
                if ins.opcode is Opcode.BR:
                    row.total_branches += 1
                    arms = self.branch_arms.get(ins.uid, set())
                    if len(arms) == 2:
                        row.covered_branches += 1
                    elif len(arms) == 1:
                        row.half_covered_branches += 1
            rows.append(row)
        return rows

    def format(self) -> str:
        """Annotated source listing: '#' covered, '-' uncovered, ' ' blank."""
        covered_lines = {line for _f, line in self.covered_lines()}
        code_lines: Set[int] = set()
        for ins in self.module.instructions():
            if ins.line > 0:
                code_lines.add(ins.line)
        out: List[str] = []
        for func_cov in self.function_coverage():
            out.append(
                f"{func_cov.name}: "
                f"{func_cov.covered_statements}/{func_cov.total_statements} "
                f"statements, {func_cov.covered_branches} full + "
                f"{func_cov.half_covered_branches} half of "
                f"{func_cov.total_branches} branches")
        if self.module.source:
            out.append("")
            for lineno, text in enumerate(self.module.source.splitlines(),
                                          start=1):
                if lineno in covered_lines:
                    mark = "#"
                elif lineno in code_lines:
                    mark = "-"
                else:
                    mark = " "
                out.append(f"{mark} {lineno:>4} {text}")
        return "\n".join(out)


def coverage_from_traces(module: Module,
                         traces: Iterable) -> CoverageReport:
    """Fold decoded PT traces (any threads, any runs) into coverage.

    ``traces`` yields :class:`~repro.pt.decoder.DecodedTrace` objects; the
    executed sequences determine statement coverage, and the decoder's
    branch facts say which arms were taken.
    """
    report = CoverageReport(module=module)
    for trace in traces:
        for window in trace.windows:
            report.executed_uids.update(window.executed)
        for uid, taken in trace.branches:
            report.branch_arms.setdefault(uid, set()).add(
                "taken" if taken else "fall")
    return report
