"""Machine configurations for the timing simulator.

The base machine follows the paper's Table 4: 16-wide issue, 256-entry
ROB, 128-entry LSQ (or a 96/96 LSQ/LVAQ split when data-decoupled),
16+16 integer/FP ALUs, 4+4 multiply/divide units, 64 KB 2-way L1 with a
2-cycle hit, 512 KB L2 at 12 cycles, 50-cycle memory, 4 KB direct-mapped
1-cycle LVC, a 32K-entry 1-bit ARPT, a 16K-entry stride value predictor,
perfect I-cache and perfect branch prediction, MIPS R10000 latencies.

An ``(N+M)`` configuration of the paper's Figure 8 maps to
``MachineConfig(l1_ports=N, lvc_ports=M, ...)``; ``M == 0`` is a
conventional single-pipeline memory system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.predictor.contexts import CONTEXT_KINDS
from repro.trace.records import (OC_BRANCH, OC_CALL, OC_FALU, OC_FDIV,
                                 OC_FMUL, OC_IALU, OC_IDIV, OC_IMUL,
                                 OC_JUMP, OC_LOAD, OC_RET, OC_STORE,
                                 OC_SYSCALL)

#: Execution latencies per op class (MIPS R10000-style, paper Table 4).
DEFAULT_LATENCIES: Dict[int, int] = {
    OC_IALU: 1,
    OC_IMUL: 6,
    OC_IDIV: 35,
    OC_FALU: 2,
    OC_FMUL: 2,
    OC_FDIV: 19,
    OC_BRANCH: 1,
    OC_JUMP: 1,
    OC_CALL: 1,
    OC_RET: 1,
    OC_SYSCALL: 1,
}

#: Functional-unit class of each op class; None = no FU constraint.
FU_CLASS: Dict[int, Optional[str]] = {
    OC_IALU: "ialu",
    OC_IMUL: "imuldiv",
    OC_IDIV: "imuldiv",
    OC_FALU: "falu",
    OC_FMUL: "fmuldiv",
    OC_FDIV: "fmuldiv",
    OC_BRANCH: "ialu",
    OC_JUMP: "ialu",
    OC_CALL: "ialu",
    OC_RET: "ialu",
    OC_SYSCALL: "ialu",
    OC_LOAD: "ialu",    # address generation
    OC_STORE: "ialu",
}


@dataclass(frozen=True)
class MachineConfig:
    """Full parameterisation of the timing model."""

    name: str = "base"
    # Widths and windows.
    issue_width: int = 16
    decode_width: int = 16
    commit_width: int = 16
    rob_size: int = 256
    lsq_size: int = 128
    lvaq_size: int = 0            # 0 disables the LVAQ/LVC pipeline
    # Functional units (counts of fully pipelined units).
    fu_counts: Tuple[Tuple[str, int], ...] = (
        ("ialu", 16), ("falu", 16), ("imuldiv", 4), ("fmuldiv", 4),
    )
    # Memory system.
    l1_ports: int = 2
    lvc_ports: int = 0
    #: 'ports' = ideal multi-porting (the paper's assumption);
    #: 'banks' = line-interleaved banks that conflict on same-bank
    #: accesses (the Sohi/Franklin-style cheap alternative, ext. A5).
    l1_port_policy: str = "ports"
    l1_latency: int = 2
    lvc_latency: int = 1
    l2_latency: int = 12
    memory_latency: int = 50
    l1_size: int = 64 * 1024
    l1_assoc: int = 2
    lvc_size: int = 4 * 1024
    l2_size: int = 512 * 1024
    l2_assoc: int = 4
    line_size: int = 32
    forward_latency: int = 1
    # Steering: 'lsq-only' (conventional), 'arpt' (predicted stack /
    # non-stack), 'oracle' (true stack / non-stack), or 'oracle-heap'
    # (the counterfactual: decouple *heap* instead of stack, testing
    # the paper's Section 3.2.2 claim that this brings little benefit).
    steering: str = "lsq-only"
    #: Fast forwarding (offset-comparison disambiguation) is only sound
    #: for the stack queue, whose addresses are $sp/$fp + constant.
    lvaq_fast_forwarding: bool = True
    arpt_size: Optional[int] = 32 * 1024
    arpt_context: str = "hybrid"
    arpt_gbh_bits: int = 8
    arpt_cid_bits: int = 7         # paper Sec 4.3: 8 GBH + 7 CID bits
    region_mispredict_penalty: int = 2
    # Front end: the paper uses a perfect I-cache and perfect branch
    # prediction; 'gshare' models a realistic predictor for the A7
    # front-end sensitivity ablation.
    branch_predictor: str = "perfect"
    bpred_entries: int = 4096
    bpred_history_bits: int = 12
    #: Cycles of front-end bubble after a mispredicted branch resolves
    #: (redirect + refetch).
    branch_redirect_penalty: int = 2
    # Data TLB (the paper's verification point: each entry carries a
    # region bit).  0 entries = perfect TLB (no translation stalls).
    tlb_entries: int = 64
    tlb_page_size: int = 4096
    tlb_miss_penalty: int = 30
    # Value prediction.
    value_predict: bool = True
    vp_entries: int = 16 * 1024
    vp_confidence: int = 2
    # Latency table.
    latencies: Tuple[Tuple[int, int], ...] = tuple(
        sorted(DEFAULT_LATENCIES.items()))

    def latency_of(self, op_class: int) -> int:
        for oc, lat in self.latencies:
            if oc == op_class:
                return lat
        raise KeyError(f"no latency for op class {op_class}")

    @property
    def decoupled(self) -> bool:
        return self.lvc_ports > 0

    def validate(self) -> None:
        if self.l1_port_policy not in ("ports", "banks"):
            raise ValueError(f"unknown port policy {self.l1_port_policy!r}")
        if self.steering not in ("lsq-only", "arpt", "oracle",
                                 "oracle-heap"):
            raise ValueError(f"unknown steering {self.steering!r}")
        if self.branch_predictor not in ("perfect", "gshare"):
            raise ValueError(
                f"unknown branch predictor {self.branch_predictor!r}")
        if self.decoupled and self.lvaq_size <= 0:
            raise ValueError("decoupled configs need a non-empty LVAQ")
        if self.decoupled and self.steering == "lsq-only":
            raise ValueError("decoupled configs need arpt/oracle steering")
        if not self.decoupled and self.steering != "lsq-only":
            raise ValueError("steering without an LVC pipeline")
        if self.l1_ports <= 0:
            raise ValueError("a cache needs at least one port")
        tables = (("arpt_size", self.arpt_size, self.steering == "arpt"),
                  ("vp_entries", self.vp_entries, self.value_predict),
                  ("bpred_entries", self.bpred_entries,
                   self.branch_predictor == "gshare"))
        for field, size, used in tables:
            if used and size is not None and (size <= 0 or size & (size - 1)):
                raise ValueError(f"{field} must be a power of two")
        if self.arpt_context not in CONTEXT_KINDS:
            raise ValueError(f"unknown ARPT context {self.arpt_context!r}")
        if self.arpt_gbh_bits < 0 or self.arpt_cid_bits < 0:
            raise ValueError("context bit widths must be non-negative")


def conventional_config(ports: int, l1_latency: int = 2,
                        name: Optional[str] = None,
                        port_policy: str = "ports") -> MachineConfig:
    """An (N+0) configuration: one data cache with N ports (or banks)."""
    suffix = "b" if port_policy == "banks" else ""
    cfg = MachineConfig(
        name=name or f"({ports}{suffix}+0)",
        l1_ports=ports, lvc_ports=0, l1_latency=l1_latency,
        lsq_size=128, lvaq_size=0, steering="lsq-only",
        l1_port_policy=port_policy,
    )
    cfg.validate()
    return cfg


def decoupled_config(l1_ports: int, lvc_ports: int, l1_latency: int = 2,
                     steering: str = "arpt",
                     name: Optional[str] = None) -> MachineConfig:
    """An (N+M) data-decoupled configuration (M > 0)."""
    cfg = MachineConfig(
        name=name or f"({l1_ports}+{lvc_ports})",
        l1_ports=l1_ports, lvc_ports=lvc_ports, l1_latency=l1_latency,
        lsq_size=96, lvaq_size=96, steering=steering,
        # Offset-based disambiguation needs static $sp/$fp offsets;
        # a heap-decoupled queue gets conservative ordering instead.
        lvaq_fast_forwarding=(steering != "oracle-heap"),
    )
    cfg.validate()
    return cfg


def figure8_configs() -> Tuple[MachineConfig, ...]:
    """The configurations of the paper's Figure 8, in plot order.

    The paper charges the (4+0) configuration a 3-cycle L1 (a 4-ported
    64 KB cache cannot keep a 2-cycle access time) and shows (3+0) at
    both 2 and 3 cycles; (16+0) is the unlimited-bandwidth upper bound.
    """
    return (
        conventional_config(2, l1_latency=2, name="(2+0)"),
        conventional_config(3, l1_latency=2, name="(3+0) 2cyc"),
        conventional_config(3, l1_latency=3, name="(3+0) 3cyc"),
        conventional_config(4, l1_latency=3, name="(4+0)"),
        decoupled_config(2, 2, name="(2+2)"),
        decoupled_config(2, 3, name="(2+3)"),
        decoupled_config(3, 3, name="(3+3)"),
        conventional_config(16, l1_latency=2, name="(16+0)"),
    )
