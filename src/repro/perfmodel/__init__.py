"""Analytic performance model of the Edge GPU cluster (and the Cray/BG-P
comparison machines of Fig. 9).

This package converts *measured algorithmic work* — operator applications,
BLAS flops, reductions, halo-face sizes, iteration counts, all taken from
real runs of the functional layer — into modeled wall-clock time on the
paper's hardware, reproducing the strong-scaling shapes of Figs. 5-10.

Model structure (one module per physical subsystem):

* :mod:`repro.perfmodel.device` — GPU/CPU-core specs and the kernel
  saturation curve (small local volumes under-utilize the GPU, the
  factor-2 effect the paper notes at the 256-GPU local volume).
* :mod:`repro.perfmodel.kernels` — bytes/flops per site for each operator
  x precision x gauge-reconstruction; dslash is bandwidth-bound.
* :mod:`repro.perfmodel.interconnect` — the PCI-E -> host-memcpy ->
  InfiniBand -> host-memcpy -> PCI-E pipeline of Sec. 6.3.
* :mod:`repro.perfmodel.streams` — the 9-stream overlap schedule of
  Fig. 4: gather kernels, interior kernel overlapping communication,
  per-dimension exterior kernels, GPU idle time.
* :mod:`repro.perfmodel.machines` — the Edge cluster and the CPU
  capability machines (Jaguar XT4/XT5, Intrepid BG/P, Kraken).
* :mod:`repro.perfmodel.solver_model` — per-iteration time of BiCGstab,
  GCR-DD and multi-shift CG from the kernel/comm pieces.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".device": ("GPUSpec", "M2050"),
    ".interconnect": ("InterconnectSpec",),
    ".kernels": ("KernelModel", "OperatorKind"),
    ".machines": ("EDGE", "GPUCluster", "CPUMachine", "CPU_MACHINES", "KRAKEN"),
    ".streams": ("DslashTimeline", "model_dslash_time"),
    ".solver_model": (
        "BiCGstabModel", "GCRDDModel", "MultishiftModel", "SolverWorkload",
    ),
})
